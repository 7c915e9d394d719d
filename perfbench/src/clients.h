// The benchmark's clients, built on the public wire calls (EncodeFrame,
// ReadFrame, FrameAssembler, the Encode*/Decode* message codecs and
// StreamReassembler) so that each call into the net layer can carry its own
// span:
//
//   RunViewers   open-loop viewers: Present requests due at a fixed rate on
//                one pipelined connection, each timed from its due time.
//   FrameConn    one blocking connection for a closed-loop actor.
//   FetchView    one Present round trip on a FrameConn.
//   FetchStream  one streamed transfer on a FrameConn, with the client-side
//                time to first frame.
#ifndef PERFBENCH_SRC_CLIENTS_H_
#define PERFBENCH_SRC_CLIENTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/rig.h"
#include "perfbench/src/tracer.h"

namespace perfbench {

// Counts every operation against its outcome. An operation fails when it is
// refused (shed), hits a transport or protocol error, is served degraded or
// failed, or its bytes differ from the ground truth (a mismatch).
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t transport = 0;
  std::uint64_t mismatched = 0;

  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
    shed += other.shed;
    transport += other.transport;
    mismatched += other.mismatched;
  }
};

// ---- open-loop viewers -----------------------------------------------------

struct ViewerPlan {
  double rate_rps = 0;
  double seconds = 0;
  std::vector<ViewKey> keys;  // request i asks for keys[i % keys.size()]
  std::uint64_t op_base = 0;  // span op ids start here
};

struct ViewerResult {
  TimedSamples latency_ms;  // response decoded - due time, stamped at the due time
  Samples rtt_ms;       // response decoded - actual send
  Samples lateness_ms;  // actual send - due time (the generator's lag)
  Samples queue_ms;     // PresentResponse::queue_ms
  OpCounts counts;
  // Requests due but not yet answered when the window closed.
  std::size_t backlog_end = 0;
  std::size_t backlog_mid = 0;
  // The last request and response payload exchanged (codec probes).
  api::PresentRequest last_request;
  std::string last_response_payload;
};

// Runs one open-loop window: request i is due at start + i / rate, is sent
// as soon as it is due whether or not earlier ones were answered, and its
// latency counts from the due time. Answers are drained after the window
// (bounded wait); unanswered requests fail.
ViewerResult RunViewers(const Rig& rig, const std::map<ViewKey, Expected>& expected,
                        const ViewerPlan& plan, SpanSink* sink);

// ---- closed-loop actors ------------------------------------------------------

class FrameConn {
 public:
  // Connects to the rig's server (aborts the process on failure).
  explicit FrameConn(int port);

  // Writes one already-encoded frame.
  cmif::Status Send(const std::string& frame_bytes);
  cmif::StatusOr<api::net::Frame> Receive();

 private:
  cmif::Socket socket_;
};

struct ViewOutcome {
  bool ok = false;
  api::PresentResponse response;
};

// One Present round trip: encode, send, receive, decode (each spanned).
ViewOutcome FetchView(FrameConn& conn, const api::PresentRequest& request, SpanSink* sink,
                      std::uint64_t op);

struct StreamOutcome {
  bool ok = false;
  double begin_ms = 0;     // request -> kStreamBegin decoded
  double ttff_ms = 0;      // request -> presentation prefix + first-need blocks in hand
  double complete_ms = 0;  // request -> Finish succeeded
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t restarts = 0;
  api::PresentResponse prefix;
  std::vector<api::net::WireBlock> blocks;
};

// One streamed transfer. An integrity failure at Finish refetches from
// chunk 0 once (counted in `restarts`).
StreamOutcome FetchStream(FrameConn& conn, const api::PresentRequest& request, SpanSink* sink,
                          std::uint64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLIENTS_H_
