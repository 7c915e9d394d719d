// The CMIF presentation server: an epoll reactor front end over a ServeLoop.
// One reactor thread (src/net/reactor.h) owns every connection's frame
// assembly and response flushing; decoded requests are admitted to a
// RequestScheduler (FIFO or EDF, src/net/scheduler.h) and drained by a
// ThreadPool of compile workers. A connection therefore supports request
// pipelining: a client may write many request frames back-to-back, work is
// scheduled globally (EDF reorders across connections by deadline), and
// responses flush strictly in request order per connection — the per-slot
// sequencer below buffers out-of-order completions until their turn.
//
// Overload is an explicit signal, never an unbounded queue: admission sheds
// when the scheduler queue is full (both policies) or when a request's
// deadline is already blown (EDF), answering a structured PresentResponse
// with shed=true and kResourceExhausted. A request whose deadline expires
// *while queued* (EDF) is degraded — answered from stale cache via
// ServeLoop::ServeStale — when the client allows it, shed otherwise; a full
// compile nobody is waiting for never burns a worker.
//
// A request frame carries a PresentRequest; the answer is a kResponse frame
// with the compiled presentation (or a degraded/shed/failed PresentResponse),
// or a kError frame for protocol-level failures (malformed payload, unknown
// frame type). kBatchRequest carries many requests; each is scheduled
// independently and the batch answers as one kBatchResponse once the last
// completes. After any kDataLoss on the wire — a corrupt frame, or a frame
// declaring a version other than kWireVersion — the stream is
// desynchronized: the server flushes pending responses, answers a kError
// frame, and drops the connection.
#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_pool.h"
#include "src/net/protocol.h"
#include "src/net/reactor.h"
#include "src/net/scheduler.h"
#include "src/net/stats.h"
#include "src/net/stream.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/serve/prefetch.h"
#include "src/serve/serve.h"

namespace cmif {
namespace net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;     // 0 = ephemeral; NetServer::port() after Start()
  int workers = 2;  // compile worker threads (ThreadPool size)
  int accept_backlog = 64;
  // Open-connection cap (reactor-enforced); one more gets a kError frame.
  std::size_t max_connections = 1024;
  // Scheduler admission: policy and queue-full shed threshold.
  SchedPolicy sched_policy = SchedPolicy::kFifo;
  std::size_t max_queue_depth = 256;
  // Deadline applied to requests that arrive without one (EDF only);
  // 0 = such requests are deadline-free and sort last.
  std::int64_t default_deadline_ms = 0;
  // Age limit for a partially received frame before the connection is
  // dropped (slow-loris defense); 0 = off. Idle connections *between*
  // frames are legitimate and never time out.
  std::int64_t partial_frame_timeout_ms = 10000;
  WireLimits limits;
  // Head-based sampling rate for requests that arrive without a trace
  // context: the server starts its own trace for this fraction of them.
  // Requests that carry a sampled client trace are always recorded (the
  // client made the sampling decision at the head).
  double trace_sample_rate = 0.0;
  // Cap on spans returned in one PresentResponse; the deepest spans win
  // because harvest order is start-time order and we keep the earliest.
  std::size_t max_response_spans = 512;
};

class NetServer {
 public:
  struct Stats {
    std::uint64_t connections = 0;      // accepted by the reactor
    std::uint64_t rejected = 0;         // refused over max_connections
    std::uint64_t requests = 0;         // request messages answered
    std::uint64_t protocol_errors = 0;  // kError frames sent
    std::uint64_t shed = 0;             // structured overload refusals
    std::uint64_t degraded_deadline = 0;  // expired-in-queue stale answers
  };

  // `loop` (and the corpus behind it) must outlive the server.
  explicit NetServer(ServeLoop& loop, NetServerOptions options = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds + listens, spawns the reactor thread and the worker pool.
  Status Start();
  // Graceful shutdown: stops accepting, waits for every admitted request to
  // complete, flushes buffered responses (bounded by the reactor's drain
  // timeout), closes every connection, and only then tears the worker pool
  // down. Idempotent; also run by the destructor.
  void Stop();

  // The bound port (resolves an ephemeral request after Start()).
  int port() const { return reactor_ ? reactor_->port() : 0; }
  bool running() const { return running_.load(std::memory_order_relaxed); }

  Stats stats() const CMIF_EXCLUDES(mu_);
  // Scheduler-level counters (sheds, expiries, queue-wait totals).
  RequestScheduler::Stats scheduler_stats() const;

  // The live telemetry answered on a kStatsRequest frame: RED metrics from
  // the always-on request histogram, MappingCache and breaker health from the
  // serve loop, and tracing counters. Works whether or not obs is enabled —
  // the histogram is a server member, not a registry instrument.
  StatsSnapshot Snapshot() const CMIF_EXCLUDES(mu_);

 private:
  // One frame ready for the wire: encoded, CRC'd and run through the
  // reactor's send-side fault hooks before the sequencer lock is taken.
  // `dropped` marks a frame whose "net.write" hook failed: the connection
  // closes where it would have gone out.
  struct OutFrame {
    std::string bytes;
    bool dropped = false;
  };
  static OutFrame Outgoing(std::string encoded);

  // One response waiting its turn in a connection's pipeline. Slots are
  // assigned in frame-arrival order on the reactor thread and flushed in
  // that order no matter which order workers finish. A slot usually holds
  // one frame; a stream response holds the whole kStreamBegin..kStreamEnd
  // sequence, flushed back-to-back so pipelined requests behind it still
  // answer in order.
  struct Slot {
    bool ready = false;
    bool close_after = false;  // drop the connection once this flushes
    std::vector<OutFrame> frames;
  };

  struct ConnState {
    std::deque<Slot> slots;       // front = next slot to send
    std::uint64_t base_slot = 0;  // absolute index of slots.front()
    std::uint64_t next_slot = 0;  // next to assign
    bool eof = false;  // peer half-closed; close once the pipeline drains
    // A frame was dropped and the connection is closing: nothing after it
    // may go out, or the peer would pair later responses with the wrong
    // requests (responses are matched positionally).
    bool dropped = false;
  };

  // The shared tail of a kBatchRequest: sub-responses land positionally,
  // the last completion encodes the kBatchResponse frame.
  struct BatchState {
    std::vector<PresentResponse> responses;
    std::atomic<std::size_t> remaining{0};
  };

  // Reactor callbacks (reactor thread; must not block).
  void OnFrame(std::uint64_t conn_id, Frame frame);
  void OnEof(std::uint64_t conn_id);
  void OnDesync(std::uint64_t conn_id, const Status& error);
  void OnClosed(std::uint64_t conn_id);

  // Assigns the next response slot for `conn_id` (reactor thread).
  std::uint64_t AssignSlot(std::uint64_t conn_id) CMIF_EXCLUDES(mu_);
  // Encodes one frame, fills a slot with it and flushes the connection's
  // contiguous ready prefix through the reactor (any thread).
  void CompleteSlot(std::uint64_t conn_id, std::uint64_t slot, FrameType type,
                    std::string_view payload, bool close_after = false)
      CMIF_EXCLUDES(mu_);
  // Multi-frame variant: the whole (already encoded) frame sequence
  // occupies one slot.
  void CompleteSlotFrames(std::uint64_t conn_id, std::uint64_t slot,
                          std::vector<OutFrame> frames, bool close_after = false)
      CMIF_EXCLUDES(mu_);

  // A request completion: the wire response plus the compiled presentation
  // behind it (null when nothing was served) — the streaming and
  // want_blocks paths need the schedule to build a delivery plan.
  using Completion =
      std::function<void(PresentResponse, std::shared_ptr<const CompiledPresentation>)>;

  // Admits one decoded request: schedules it (posting a worker ticket) or
  // sheds it immediately. `done` receives the finished response exactly once.
  void Admit(PresentRequest request, Completion done);
  // The worker-side request path: trace installation, spans, the serve
  // ladder — or the stale-degrade path when the deadline expired in queue.
  PresentResponse Process(const PresentRequest& request, const RequestScheduler::Item& item,
                          std::shared_ptr<const CompiledPresentation>* presentation);
  // Wire names -> corpus and profile indices; an empty profile name means
  // the loop's first profile. kNotFound for an unknown name.
  StatusOr<ServeRequest> Resolve(const PresentRequest& request) const;
  // Name -> index resolution plus the serve call (no trace bookkeeping).
  PresentResponse HandleRequest(const PresentRequest& request,
                                std::shared_ptr<const CompiledPresentation>* presentation);
  // Deadline expired while queued and the client allows degradation: answer
  // from stale cache (ServeLoop::ServeStale), shed when nothing is cached.
  PresentResponse HandleExpired(const PresentRequest& request,
                                std::shared_ptr<const CompiledPresentation>* presentation);
  PresentResponse ShedResponse(const Status& reason) const;

  // Worker-side completion of a kStreamRequest: frames the
  // kStreamBegin..kStreamEnd sequence from the loop's (memoized) delivery
  // plan into the reserved slot — or a plain kResponse when there is
  // nothing to stream (the client's blob fallback).
  void CompleteStream(std::uint64_t conn_id, std::uint64_t slot, const StreamRequest& stream,
                      PresentResponse response,
                      std::shared_ptr<const CompiledPresentation> presentation);

  void BumpProtocolErrors() CMIF_EXCLUDES(mu_);

  ServeLoop& loop_;
  NetServerOptions options_;
  // Name -> index resolution for the wire's string identifiers, built once
  // at Start() (the corpus and profile set are fixed for the loop's life).
  std::unordered_map<std::string, std::size_t> documents_;
  std::unordered_map<std::string, std::size_t> profiles_;

  std::unique_ptr<RequestScheduler> scheduler_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> running_{false};
  // steady_clock microseconds at Start(), for the snapshot's uptime.
  std::uint64_t started_us_ = 0;

  // RED duration distribution over every handled request, always on (its
  // Record is lock-free and the stats frame must work with obs compiled
  // out). Outcome/trace tallies ride alongside as plain atomics.
  obs::Histogram request_ms_;
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> traces_sampled_{0};
  // Streamed-delivery counters (the kStats "streaming" section). Bytes are
  // chunk payload bytes actually sent; full_bytes is what a blob delivery of
  // the same streams would have sent — the gap is the resume savings.
  std::atomic<std::uint64_t> streams_{0};
  std::atomic<std::uint64_t> stream_chunks_{0};
  std::atomic<std::uint64_t> stream_bytes_{0};
  std::atomic<std::uint64_t> stream_full_bytes_{0};
  std::atomic<std::uint64_t> stream_resumes_{0};
  std::atomic<std::uint64_t> stream_stalls_{0};

  mutable Mutex mu_;
  CondVar idle_cv_;  // signals outstanding_ == 0 (graceful Stop)
  std::unordered_map<std::uint64_t, ConnState> conns_ CMIF_GUARDED_BY(mu_);
  std::uint64_t outstanding_ CMIF_GUARDED_BY(mu_) = 0;  // admitted, not answered
  bool draining_ CMIF_GUARDED_BY(mu_) = false;          // Stop(): shed new work
  Stats stats_ CMIF_GUARDED_BY(mu_);
  // Ring of recent sampled trace ids — the exemplars in the stats snapshot.
  static constexpr std::size_t kMaxExemplars = 16;
  std::vector<std::uint64_t> exemplars_ CMIF_GUARDED_BY(mu_);
  std::size_t exemplar_next_ CMIF_GUARDED_BY(mu_) = 0;
};

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_SERVER_H_
