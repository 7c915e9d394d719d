// The concurrent document-serving layer: one shared ddbms instance, a
// thread pool of pipeline workers, and the compiled-presentation cache. A
// request is a (document, profile) pair; the response is the compiled
// presentation (map + filter report + schedule) that a client-side player
// would consume. Request traces are synthetic with Zipf-distributed document
// popularity — the multi-client shape of a news server where a few broadcasts
// are hot and the long tail is cold.
#ifndef SRC_SERVE_SERVE_H_
#define SRC_SERVE_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/ddbms/shared_store.h"
#include "src/doc/document.h"
#include "src/fault/circuit_breaker.h"
#include "src/fault/retry.h"
#include "src/present/capability.h"
#include "src/serve/mapping_cache.h"
#include "src/serve/persistent_cache.h"
#include "src/serve/prefetch.h"

namespace cmif {

// One servable document: the parsed tree plus its precomputed content hash
// (documents are immutable once registered; descriptors live in the shared
// store, not here).
struct ServeDocument {
  std::string name;
  Document document{NodeKind::kSeq};
  std::uint64_t document_hash = 0;
  std::uint64_t channel_hash = 0;
};

// The server's corpus: every registered document over one shared descriptor
// database and block store ("one ddbms instance serves all workers").
class ServeCorpus {
 public:
  ServeCorpus() = default;
  ServeCorpus(const ServeCorpus&) = delete;
  ServeCorpus& operator=(const ServeCorpus&) = delete;

  // Registers a document and merges its catalog into the shared stores.
  // Descriptor ids shared between documents must reference identical content
  // (the Evening News variants overlap this way by construction).
  Status AddDocument(std::string name, Document document, const DescriptorStore& catalog,
                     const BlockStore& blocks);

  // Replaces the document in slot `index` (the edit-session publish path).
  // Rehashes the slot's identity and bumps the shared-store generation, so
  // every mapping-cache and persistent-cache entry compiled from the old
  // revision becomes unreachable before it could be dereferenced. Callers
  // must not race this with requests being served on the same slot.
  Status UpdateDocument(std::size_t index, Document document);

  std::size_t size() const { return documents_.size(); }
  const ServeDocument& document(std::size_t i) const { return *documents_[i]; }

  SharedDescriptorStore& store() { return store_; }
  const SharedDescriptorStore& store() const { return store_; }
  SharedBlockStore& blocks() { return blocks_; }
  const SharedBlockStore& blocks() const { return blocks_; }

 private:
  // unique_ptr so ServeDocument addresses (and the Node pointers inside
  // cached Schedules) stay stable as the corpus grows.
  std::vector<std::unique_ptr<ServeDocument>> documents_;
  SharedDescriptorStore store_;
  SharedBlockStore blocks_;
};

// Builds a corpus of Evening News variants: document i has (i % max_stories)
// + 1 stories, so variants share story prefixes and their descriptors merge
// consistently into the shared catalog.
StatusOr<std::unique_ptr<ServeCorpus>> BuildNewsCorpus(int documents, int max_stories = 3,
                                                       std::uint64_t seed = 1);

// One synthetic request.
struct ServeRequest {
  std::size_t document = 0;  // index into the corpus
  std::size_t profile = 0;   // index into ServeOptions::profiles
};

struct ServeOptions {
  int threads = 4;
  // Zipf skew of document popularity (0 = uniform, 1.0 = classic web trace).
  double zipf_skew = 1.0;
  std::uint64_t seed = 1;
  std::size_t cache_capacity = 128;
  bool use_cache = true;
  // When non-empty, an on-disk second tier (src/serve/persistent_cache)
  // behind the memory cache: misses fall through to disk before compiling
  // (promoting hits into memory), fresh compiles are written behind. The
  // directory is opened at ServeLoop construction; an unusable directory is
  // recorded in ServeLoop::pcache_status() and serving continues memory-only.
  std::string cache_dir;
  // Profiles requests are served against, chosen uniformly per request.
  std::vector<SystemProfile> profiles = {WorkstationProfile(), PersonalSystemProfile()};
  // Recovery ladder around the compile path. Retries apply to kUnavailable
  // compile failures (the only code fault injection produces); the breaker is
  // keyed per document, so one persistently failing document fails fast
  // without starving the rest of the corpus.
  fault::RetryPolicy retry;
  fault::BreakerOptions compile_breaker;
  // When true, a request whose compile fails (or is rejected by an open
  // breaker) is answered from the freshest stale cache entry for the same
  // (document, profile) — reported as degraded, never re-cached as healthy.
  bool enable_degraded = false;
  // Test seam: runs on the worker thread before each request in Run().
  // Exceptions it throws are counted in ServeStats::exceptions (satellite:
  // worker exceptions must surface as errors, not vanish).
  std::function<void(const ServeRequest&)> request_hook;
};

// Deterministic Zipf request trace over `corpus_size` documents: the same
// (corpus_size, options.seed, options.zipf_skew, profile count) always
// yields the same trace.
std::vector<ServeRequest> GenerateTrace(std::size_t corpus_size, std::size_t requests,
                                        const ServeOptions& options);

// How one request ended. kHealthy/kRecovered carry a fresh compile (the
// latter after at least one retry), kDegraded carries a stale presentation
// served because the fresh compile failed, kFailed carries only an error.
enum class ServeOutcome { kHealthy = 0, kRecovered, kDegraded, kFailed };

std::string_view ServeOutcomeName(ServeOutcome outcome);

// The full answer to one request: distinguishes degraded from failed (the
// degraded-vs-failed split the chaos bench measures).
struct ServeResponse {
  std::shared_ptr<const CompiledPresentation> presentation;
  ServeOutcome outcome = ServeOutcome::kHealthy;
  int attempts = 1;   // compile attempts consumed (1 on cache hits)
  bool cache_hit = false;
  bool disk_hit = false;  // the hit came from the persistent tier
  Status error;       // the compile error behind kDegraded / kFailed

  // True when the client got a presentation, healthy or not.
  bool served() const { return outcome != ServeOutcome::kFailed; }
};

// Aggregate results of one ServeLoop run.
struct ServeStats {
  std::size_t requests = 0;
  // Requests that produced no presentation: failed compiles plus worker
  // exceptions. Degraded responses are NOT errors — they served a (stale)
  // presentation and are counted separately.
  std::size_t errors = 0;
  std::size_t degraded = 0;     // served stale after a compile failure
  std::size_t recovered = 0;    // healthy after >= 1 retry
  std::size_t exceptions = 0;   // worker-thread exceptions (included in errors)
  std::uint64_t breaker_opens = 0;  // compile-breaker opens during the run
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t pcache_hits = 0;  // disk-tier hits (included in cache_hits)
  double wall_ms = 0;
  double throughput_rps = 0;
  // Per-request latency percentiles (milliseconds).
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;

  std::string Summary() const;
};

// The serve driver: fans a request trace out over a thread pool. Workers
// pull requests from a shared atomic cursor (no per-request future
// round-trips) and run the compile pipeline — or hit the cache — under the
// shared store's read lock.
class ServeLoop {
 public:
  ServeLoop(ServeCorpus& corpus, ServeOptions options);

  // Serves one request synchronously on the calling thread, running the full
  // recovery ladder: cache -> breaker gate -> compile with retries -> stale
  // fallback. Never throws; every outcome (including kFailed) comes back as
  // a ServeResponse.
  ServeResponse Serve(const ServeRequest& request);

  // Cache-only serving for work that must not compile — the net layer's
  // blown-deadline degrade path. A fresh cache hit answers kHealthy; a stale
  // entry answers kDegraded carrying `reason`; otherwise kFailed with
  // `reason`. Never runs the pipeline, so it costs microseconds regardless
  // of load, and ignores enable_degraded (the caller already decided to
  // degrade — that is the point of calling this).
  ServeResponse ServeStale(const ServeRequest& request, Status reason);

  // The delivery plan (src/serve/prefetch.h) for `presentation`, served for
  // `request` and restricted to `channels`. The whole-document plan is
  // memoized beside the mapping-cache entry that holds `presentation`, and
  // reused while the descriptor-store generation (in the entry's key), the
  // block-store generation and the profile are the ones it was built under —
  // a warm stream is then one cache probe, not a rebuild. A channel-filtered
  // request, a presentation no fresh entry holds (uncached, stale, or
  // replaced), and a degraded plan are built per call and never memoized.
  StatusOr<std::shared_ptr<const StreamPlan>> StreamPlanFor(
      const ServeRequest& request, const CompiledPresentation& presentation,
      const std::vector<std::string>& channels = {});

  // Serves the whole trace on `options.threads` workers and aggregates.
  StatusOr<ServeStats> Run(const std::vector<ServeRequest>& trace);

  MappingCache& cache() { return cache_; }
  fault::BreakerSet& breakers() { return breakers_; }
  const ServeOptions& options() const { return options_; }
  const ServeCorpus& corpus() const { return corpus_; }

  // The disk tier; nullptr when cache_dir is empty or Open failed.
  PersistentCache* pcache() { return pcache_.get(); }
  // Why the disk tier is absent (Ok when present or never requested).
  const Status& pcache_status() const { return pcache_status_; }

 private:
  ServeCorpus& corpus_;
  ServeOptions options_;
  MappingCache cache_;
  std::unique_ptr<PersistentCache> pcache_;
  Status pcache_status_;
  // Per-document compile breakers (keyed by document name).
  fault::BreakerSet breakers_;
};

}  // namespace cmif

#endif  // SRC_SERVE_SERVE_H_
