// The system under test, as a user would stand it up: a serving corpus
// (Evening News variants plus one generated authoring document), a ServeLoop
// over it, and a NetServer listening on loopback. Also the in-process ground
// truth every served byte is checked against.
#ifndef PERFBENCH_SRC_RIG_H_
#define PERFBENCH_SRC_RIG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/cmif.h"

namespace perfbench {

namespace api = cmif::api;

// Fixed shape of the corpus and the server. Every workload uses the same
// rig; the workload seed changes the generated content, never its size.
inline constexpr std::size_t kNewsDocs = 12;      // slot i has i % 3 + 1 stories
inline constexpr int kNewsMaxStories = 3;
inline constexpr std::size_t kAuthorSlot = kNewsDocs;  // the generated document
inline constexpr int kServerWorkers = 2;

// One (corpus slot, profile index) pair: what a viewer asks for.
struct ViewKey {
  std::size_t slot = 0;
  std::size_t profile = 0;
  bool operator<(const ViewKey& other) const {
    return std::pair(slot, profile) < std::pair(other.slot, other.profile);
  }
};

// What a correct answer for a key looks like: the canonical serialization
// of an in-process compile, and its hash.
struct Expected {
  std::string body;
  std::uint64_t hash = 0;
};

class Rig {
 public:
  // Builds the corpus from `seed`, starts the server, and warms every
  // news key once over the socket. Aborts the process on any failure.
  explicit Rig(std::uint64_t seed);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  api::ServeCorpus& corpus() { return *corpus_; }
  api::ServeLoop& loop() { return *loop_; }
  int port() const { return server_->port(); }
  const std::vector<cmif::SystemProfile>& profiles() const { return loop_->options().profiles; }

  api::PresentRequest RequestFor(const ViewKey& key) const;

 private:
  std::unique_ptr<api::ServeCorpus> corpus_;
  std::unique_ptr<api::ServeLoop> loop_;
  std::unique_ptr<api::NetServer> server_;
};

// In-process compile of `document` against the corpus stores under
// `profile` (the ground truth the server's answers must equal). The report
// is returned too: its stage timings feed the pipeline layer metrics.
struct GroundTruth {
  Expected expected;
  api::CompileReport report;
};
GroundTruth CompileInProcess(api::ServeCorpus& corpus, const cmif::Document& document,
                             const cmif::SystemProfile& profile);

// Ground truth for every news key.
std::map<ViewKey, Expected> ExpectedNews(Rig& rig);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RIG_H_
