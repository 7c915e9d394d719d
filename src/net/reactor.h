// The epoll event loop under the NetServer: one reactor thread owns every
// connection's state machine (accept → read bytes → assemble frames →
// hand off → buffer response bytes → flush), so ThreadPool workers never
// block on sockets and thousands of idle connections cost one fd each, not
// one thread each.
//
// Threading contract: the reactor thread is the only one that touches
// sockets, buffers, and epoll. All handlers (on_frame / on_eof / on_desync /
// on_close) run on the reactor thread and must not block — a compile takes
// milliseconds, so the server's on_frame only decodes and enqueues into the
// RequestScheduler. Cross-thread calls (SendFrame / CloseConnection from
// workers, Stop from anywhere) post to a mailbox and wake the loop through a
// self-pipe; called *from* a handler they apply immediately, preserving
// same-thread ordering. The mailbox is FIFO: frames reach the socket in the
// order SendFrame was called, so a caller that needs responses in request
// order (the server's per-connection sequencer) must serialize its SendFrame
// calls — the server holds its sequencer lock across the hand-off.
//
// Defenses owned here: a connection cap (excess accepts get a kError frame
// and an immediate close), the "net.accept" fault site (flaky front end
// drops the handshake), the partial-frame timeout (a slow-loris peer that
// trickles a frame for longer than partial_frame_timeout_ms is dropped —
// idle connections *between* frames are legitimate and live forever), and
// the "net.partial_write" fault site (a flush attempt transiently moves one
// byte, exercising short-write resumption).
#ifndef SRC_NET_REACTOR_H_
#define SRC_NET_REACTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/socket.h"
#include "src/base/status.h"
#include "src/net/wire.h"

namespace cmif {
namespace net {

struct ReactorOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; Reactor::port() after Start()
  int accept_backlog = 64;
  // Open-connection cap; one more gets a kError(kResourceExhausted) frame.
  std::size_t max_connections = 1024;
  // Age limit for a partially received frame (slow-loris defense); 0 = off.
  std::int64_t partial_frame_timeout_ms = 10000;
  WireLimits limits;
};

class Reactor {
 public:
  // A complete frame arrived. Runs on the reactor thread; must not block.
  using FrameHandler = std::function<void(std::uint64_t conn_id, Frame frame)>;
  // The peer half-closed its read side cleanly. The connection stays open
  // for writes (pipelined responses may still be in flight); the server
  // calls CloseConnection once its last response for this conn is posted.
  using EofHandler = std::function<void(std::uint64_t conn_id)>;
  // The inbound stream desynchronized (kDataLoss). The connection can still
  // write — the conventional reply is a kError frame then CloseConnection.
  using DesyncHandler = std::function<void(std::uint64_t conn_id, const Status& error)>;
  // The connection is gone (exactly once per accepted connection).
  using CloseHandler = std::function<void(std::uint64_t conn_id, const Status& reason)>;

  Reactor(ReactorOptions options, FrameHandler on_frame, EofHandler on_eof,
          DesyncHandler on_desync, CloseHandler on_close);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Binds + listens, then spawns the reactor thread.
  Status Start();

  // Closes the listener; existing connections keep being served. Safe from
  // any thread; idempotent.
  void StopAccepting();

  // Stops the loop: closes the listener, stops reading, flushes buffered
  // responses for up to drain_timeout_ms, closes every connection (on_close
  // fires for each), and joins the thread. Idempotent.
  void Stop(std::int64_t drain_timeout_ms = 2000);

  int port() const { return listener_.port(); }

  // Queues one frame on a connection (any thread): EncodeFrame, then
  // ApplySendFaults (a failed write closes the connection instead), then
  // SendEncoded.
  Status SendFrame(std::uint64_t conn_id, FrameType type, std::string_view payload,
                   bool close_after = false);

  // Queues one already-encoded frame on a connection (any thread), taking
  // its bytes by move. close_after closes the connection once the frame
  // (and everything queued before it) is flushed. kNotFound when the
  // connection is already gone — a response racing a disconnect, not an
  // error worth propagating to anyone. Callers that encode ahead of a lock
  // of their own hold that lock only for this hand-off.
  Status SendEncoded(std::uint64_t conn_id, std::string encoded, bool close_after = false);

  // The send-side fault hooks, run on a frame before it is queued:
  // "net.write" fails it (the sender closes the connection in its place)
  // and "net.frame_corrupt" flips bytes of it in transit (the peer's CRC
  // check catches that). A no-op without a fault plan; thread-safe.
  static Status ApplySendFaults(std::string& encoded);

  // Closes a connection after flushing anything already queued (any thread).
  void CloseConnection(std::uint64_t conn_id);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_capacity = 0;  // over max_connections
    std::uint64_t accept_faults = 0;      // net.accept injections
    std::uint64_t desyncs = 0;
    std::uint64_t slow_loris_drops = 0;   // partial-frame timeouts
    std::size_t open = 0;
  };
  Stats stats() const CMIF_EXCLUDES(mu_);

 private:
  struct Conn {
    std::uint64_t id = 0;
    Socket socket;
    FrameAssembler assembler;
    // Encoded frames waiting to flush, in order, moved in as posted (a
    // large frame is never copied again, and each frees as soon as it has
    // flushed); small frames coalesce into the tail so a burst of small
    // responses still leaves in one write. out_pos is the flushed prefix of
    // out.front(); a fully flushed front is popped at once.
    std::deque<std::string> out;
    std::size_t out_pos = 0;
    std::uint32_t events = 0;   // current epoll interest mask
    bool close_after_flush = false;
    bool read_eof = false;      // peer half-closed; stop reading
    bool desynced = false;      // stop reading; conn dies after error flush
    // Destruction is deferred to the end of the loop iteration so handler
    // callbacks never see a freed Conn; MarkDead flips this.
    bool is_dead = false;
    Status death_reason;
    std::int64_t partial_since_us = 0;  // first byte of an incomplete frame
    explicit Conn(Socket s) : socket(std::move(s)) {}
    bool dead() const { return is_dead; }
  };

  struct Op {
    enum class Kind { kSend, kClose, kStopAccepting, kStop } kind = Kind::kClose;
    std::uint64_t conn_id = 0;
    std::string bytes;          // pre-encoded frame (kSend)
    bool close_after = false;
    std::int64_t drain_timeout_ms = 0;  // kStop
  };

  void Run();
  void HandleAccept();
  void HandleReadable(Conn& conn);
  void HandleWritable(Conn& conn);
  void FlushOut(Conn& conn);
  void UpdateInterest(Conn& conn);
  void MarkDead(Conn& conn, Status reason);
  void DestroyConn(std::uint64_t conn_id, const Status& reason);
  void ApplyOp(Op op);
  void PostOp(Op op) CMIF_EXCLUDES(mu_);
  bool OnReactorThread() const;
  void SweepPartialFrames(std::int64_t now_us);
  Status SendFrameLocked(std::uint64_t conn_id, std::string encoded, bool close_after);

  const ReactorOptions options_;
  const FrameHandler on_frame_;
  const EofHandler on_eof_;
  const DesyncHandler on_desync_;
  const CloseHandler on_close_;

  ListenSocket listener_;
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;
  std::thread thread_;
  // Atomics so SendFrame/CloseConnection stay safe from any thread even when
  // racing Stop(): started_ gates re-entry into Stop, reactor_tid_ identifies
  // the loop thread without touching thread_ (which Stop concurrently joins).
  // Set at the top of Run(), cleared after the join — a default-constructed
  // id never matches a live thread.
  std::atomic<bool> started_{false};
  std::atomic<std::thread::id> reactor_tid_{};

  // Reactor-thread-only state (no lock: single owner).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  bool accepting_ = true;
  bool stopping_ = false;
  std::int64_t drain_deadline_us_ = 0;

  mutable Mutex mu_;
  std::vector<Op> mailbox_ CMIF_GUARDED_BY(mu_);
  // The self-pipe write end is guarded so PostOp's wake can never race the
  // close in Stop() (worst case a write to a recycled fd); Stop joins the
  // loop thread before closing it under the lock.
  int wake_write_fd_ CMIF_GUARDED_BY(mu_) = -1;
  Stats stats_ CMIF_GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_REACTOR_H_
