// The CMIF presentation client: one persistent connection to a NetServer
// with transport-level recovery. Requests are read-only compiles, hence
// idempotent, so the client may retry a whole round trip after any transport
// failure: it reconnects and resends under the serve layer's RetryPolicy.
// A kDataLoss from the wire (corrupt frame in either direction) also drops
// the connection and retries — the stream is desynchronized, but a fresh
// connection starts clean — which is how a chaos replay over the socket
// still answers 100% of requests.
#ifndef SRC_NET_CLIENT_H_
#define SRC_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/socket.h"
#include "src/base/status.h"
#include "src/fault/retry.h"
#include "src/net/protocol.h"
#include "src/net/stats.h"
#include "src/net/stream.h"
#include "src/net/wire.h"

namespace cmif {
namespace net {

struct NetClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  // Socket read/write deadline per call; 0 = none.
  int io_timeout_ms = 10000;
  // Transport retry ladder (reconnect + resend). max_attempts = 1 disables
  // retries entirely.
  fault::RetryPolicy retry;
  WireLimits limits;
};

// What PresentStream delivered. `streamed` distinguishes the chunked path
// from the blob fallback (the server answered a plain response because
// there was nothing to stream); `response` carries the presentation and
// `blocks` the delivered payloads in delivery order (empty on the
// fallback).
struct StreamResult {
  PresentResponse response;
  std::vector<WireBlock> blocks;
  bool streamed = false;
  // Identity of the delivered stream (0 on the blob fallback); pass it to
  // ReportStreamStalls once playback has measured its stalls.
  std::uint64_t stream_id = 0;
  std::uint64_t chunks_received = 0;
  std::uint64_t bytes_streamed = 0;
  // Mid-stream reconnects that resumed at a chunk boundary.
  std::uint64_t resumes = 0;
  // Integrity restarts: the end-to-end payload hash failed, so the stream
  // was refetched from chunk 0 (a resume would replay the corrupt bytes).
  std::uint64_t restarts = 0;
};

// Not thread-safe: one client per thread (connections are cheap; the server
// handles each one sequentially anyway).
class NetClient {
 public:
  explicit NetClient(NetClientOptions options);

  // One request round trip, with transport retries. A successfully
  // transported answer is returned whole — including kFailed outcomes, whose
  // error sits inside the response — while transport and protocol failures
  // (connect refused, desync, overload rejection) are the StatusOr error.
  //
  // When `request.trace` is valid it is installed for the call's duration,
  // the round trip records a "net-client-request" span, and the wire copy's
  // parent_span_id is that span's id — so a sampled server hands back spans
  // that nest under the client's own timeline.
  StatusOr<PresentResponse> Present(const PresentRequest& request);

  // Streamed delivery: a kStreamRequest answered by kStreamBegin +
  // kStreamChunk* + kStreamEnd, reassembled and integrity-checked. A
  // kResponse in place of kStreamBegin is the server's blob fallback
  // (nothing streamable) and is returned with streamed == false. A kError
  // is treated as in Present(): kDataLoss (the request was corrupted in
  // transit) reconnects and retries the stream, any other status is
  // returned. Transport failures mid-stream reconnect and *resume* at the
  // last contiguous chunk boundary; an end-to-end hash mismatch restarts
  // from chunk 0. Every retry consumes the budget
  // (options.retry.max_attempts).
  StatusOr<StreamResult> PresentStream(const PresentRequest& request,
                                       std::uint64_t chunk_bytes = kDefaultChunkBytes);

  // Reports playback stalls attributed to a delivered stream (the
  // StreamResult's stream_id) as a one-way kStreamAck, feeding the server's
  // stream_stalls counter. PresentStream's own completion ack carries the
  // chunk count but zero stalls — stalls only exist once a player has run
  // against the delivered blocks, so the caller sends them afterwards.
  // Best-effort telemetry: a failure harms nothing and is safe to ignore.
  Status ReportStreamStalls(std::uint64_t stream_id, std::uint64_t stalls);

  // Many requests in one kBatchRequest frame (kInvalidArgument when the
  // batch exceeds kMaxBatchMessages). Responses answer positionally;
  // shed/degraded outcomes sit inside their PresentResponse like in
  // Present().
  StatusOr<std::vector<PresentResponse>> PresentBatch(
      const std::vector<PresentRequest>& requests);

  // Liveness probe: a kPing frame echoed back as kPong.
  Status Ping();

  // Fetches the server's live telemetry (a kStatsRequest round trip).
  StatusOr<StatsSnapshot> FetchStats();

  // Drops the connection; the next call reconnects.
  void Disconnect();
  bool connected() const { return socket_.valid(); }

  // Reconnections performed after the initial connect (a transport-recovery
  // count for tests and the chaos bench).
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  Status EnsureConnected();
  // Sends one frame and reads the answer on the current connection. Any
  // failure (including kDataLoss desync) disconnects and maps to
  // kUnavailable so the retry wrapper re-runs it.
  StatusOr<Frame> RoundTripOnce(FrameType type, const std::string& payload);
  StatusOr<Frame> RoundTrip(FrameType type, const std::string& payload);
  // The status a kError frame carries, mapped for the retry loops: a
  // kDataLoss (the server saw our frame corrupted in transit) becomes a
  // retryable kUnavailable, anything else is returned as is. Disconnects —
  // the server drops the connection after every kError.
  Status ErrorFrameStatus(const Frame& frame);
  // Expects kResponse and decodes its PresentResponse (disconnecting on a
  // malformed one).
  StatusOr<PresentResponse> DecodePresentFrame(Frame frame);

  NetClientOptions options_;
  Socket socket_;
  bool ever_connected_ = false;
  std::uint64_t reconnects_ = 0;
};

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_CLIENT_H_
