#include "src/net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace cmif {
namespace net {
namespace {

// epoll_event.data.u64 tags; connection ids start at 1.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Reactor::Reactor(ReactorOptions options, FrameHandler on_frame, EofHandler on_eof,
                 DesyncHandler on_desync, CloseHandler on_close)
    : options_(std::move(options)),
      on_frame_(std::move(on_frame)),
      on_eof_(std::move(on_eof)),
      on_desync_(std::move(on_desync)),
      on_close_(std::move(on_close)) {}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("reactor already started");
  }
  CMIF_RETURN_IF_ERROR(listener_.Listen(options_.host, options_.port, options_.accept_backlog));
  CMIF_RETURN_IF_ERROR(listener_.SetNonBlocking());
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    listener_.Close();
    return UnavailableError(StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    Status status = UnavailableError(StrFormat("pipe2: %s", std::strerror(errno)));
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    listener_.Close();
    return status;
  }
  wake_read_fd_ = pipe_fds[0];
  {
    MutexLock lock(mu_);
    wake_write_fd_ = pipe_fds[1];
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);

  accepting_ = true;
  stopping_ = false;
  started_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void Reactor::StopAccepting() {
  Op op;
  op.kind = Op::Kind::kStopAccepting;
  PostOp(std::move(op));
}

void Reactor::Stop(std::int64_t drain_timeout_ms) {
  // exchange makes concurrent Stops idempotent: exactly one caller posts the
  // kStop op and tears down. Late SendFrame/CloseConnection callers still
  // enqueue safely — PostOp's wake is a no-op once the write end closes.
  if (!started_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  Op op;
  op.kind = Op::Kind::kStop;
  op.drain_timeout_ms = drain_timeout_ms;
  PostOp(std::move(op));
  if (thread_.joinable()) {
    thread_.join();
  }
  // Thread ids can be recycled: clear ours after the join so a future thread
  // that happens to reuse it never passes OnReactorThread().
  reactor_tid_.store(std::thread::id(), std::memory_order_relaxed);
  listener_.Close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  {
    MutexLock lock(mu_);
    if (wake_write_fd_ >= 0) {
      ::close(wake_write_fd_);
      wake_write_fd_ = -1;
    }
  }
}

Status Reactor::SendFrame(std::uint64_t conn_id, FrameType type, std::string_view payload,
                          std::uint8_t version, bool close_after) {
  std::string encoded = EncodeFrame(type, payload, version);
  if (Status status = ApplySendFaults(encoded); !status.ok()) {
    CloseConnection(conn_id);
    return status;
  }
  return SendEncoded(conn_id, std::move(encoded), close_after);
}

Status Reactor::ApplySendFaults(std::string& encoded) {
  if (fault::Enabled()) {
    // A failed response write drops the connection, exactly like the
    // blocking server's WriteFrame error path did.
    CMIF_RETURN_IF_ERROR(fault::InjectPoint("net.write"));
    fault::MaybeCorrupt("net.frame_corrupt", encoded);
  }
  return Status::Ok();
}

Status Reactor::SendEncoded(std::uint64_t conn_id, std::string encoded, bool close_after) {
  if (obs::Enabled()) {
    static obs::Counter& tx_bytes = obs::GetCounter("net.tx_bytes");
    static obs::Counter& tx_frames = obs::GetCounter("net.tx_frames");
    tx_bytes.Add(static_cast<std::int64_t>(encoded.size()));
    tx_frames.Add();
  }
  if (OnReactorThread()) {
    return SendFrameLocked(conn_id, std::move(encoded), close_after);
  }
  Op op;
  op.kind = Op::Kind::kSend;
  op.conn_id = conn_id;
  op.bytes = std::move(encoded);
  op.close_after = close_after;
  PostOp(std::move(op));
  return Status::Ok();
}

void Reactor::CloseConnection(std::uint64_t conn_id) {
  Op op;
  op.kind = Op::Kind::kClose;
  op.conn_id = conn_id;
  if (OnReactorThread()) {
    ApplyOp(std::move(op));
  } else {
    PostOp(std::move(op));
  }
}

Reactor::Stats Reactor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

bool Reactor::OnReactorThread() const {
  // Compares against the id published by Run() rather than thread_ itself:
  // thread_ may be concurrently joined by Stop(), and a default id (set
  // before Run starts / after Stop joins) matches no live thread.
  return std::this_thread::get_id() == reactor_tid_.load(std::memory_order_relaxed);
}

void Reactor::PostOp(Op op) {
  MutexLock lock(mu_);
  mailbox_.push_back(std::move(op));
  // The wake happens under the same lock that guards the fd, so it can never
  // race Stop()'s close (worst case of the unsynchronized version: a write
  // to a recycled descriptor). The pipe is O_NONBLOCK; a full pipe already
  // has a pending wake, so a dropped byte is harmless.
  if (wake_write_fd_ >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void Reactor::Run() {
  reactor_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::vector<epoll_event> events(128);
  std::vector<std::pair<std::uint64_t, Status>> dead;
  std::int64_t last_sweep_us = NowUs();
  for (;;) {
    int timeout_ms = stopping_ ? 10 : 100;
    int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) {
      break;  // epoll itself failed; tear down below
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        char drainbuf[256];
        while (::read(wake_read_fd_, drainbuf, sizeof(drainbuf)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) {
        continue;
      }
      Conn& conn = *it->second;
      std::uint32_t ev = events[i].events;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        MarkDead(conn, UnavailableError("connection reset by peer"));
        continue;
      }
      if (ev & EPOLLIN) {
        HandleReadable(conn);
      }
      if (!conn.dead() && (ev & EPOLLOUT)) {
        HandleWritable(conn);
      }
    }

    std::vector<Op> ops;
    {
      MutexLock lock(mu_);
      ops.swap(mailbox_);
    }
    for (Op& op : ops) {
      ApplyOp(std::move(op));
    }

    std::int64_t now = NowUs();
    if (options_.partial_frame_timeout_ms > 0 && now - last_sweep_us > 50000) {
      SweepPartialFrames(now);
      last_sweep_us = now;
    }

    // Bury connections marked dead this iteration (deferred so handler
    // callbacks never see a freed Conn mid-event).
    dead.clear();
    for (auto& [id, conn] : conns_) {
      if (conn->dead()) {
        dead.emplace_back(id, conn->death_reason);
      }
    }
    for (auto& [id, reason] : dead) {
      DestroyConn(id, reason);
    }

    if (stopping_) {
      bool flushing = false;
      for (auto& [id, conn] : conns_) {
        if (!conn->out.empty()) {
          flushing = true;
          break;
        }
      }
      if (!flushing || now >= drain_deadline_us_) {
        break;
      }
    }
  }
  // Final teardown: every remaining connection closes (flushed or not —
  // the drain window above is the flush guarantee).
  std::vector<std::uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) {
    remaining.push_back(id);
  }
  for (std::uint64_t id : remaining) {
    DestroyConn(id, UnavailableError("server stopping"));
  }
  listener_.Close();
}

void Reactor::HandleAccept() {
  for (;;) {
    StatusOr<std::optional<Socket>> accepted = listener_.TryAccept();
    if (!accepted.ok() || !accepted->has_value()) {
      return;  // drained, or listener closed by StopAccepting/Stop
    }
    Socket socket = std::move(**accepted);
    if (!accepting_) {
      continue;  // raced the listener close; drop
    }
    // The accept fault site models a flaky front end: the connection is
    // dropped right after the handshake and the client retries.
    if (fault::Enabled() && !fault::InjectPoint("net.accept").ok()) {
      MutexLock lock(mu_);
      ++stats_.accept_faults;
      continue;  // socket destructor closes the connection
    }
    // Non-blocking before anything else: the best-effort reject write below
    // relies on O_NONBLOCK — a blocking send() here would be the one
    // syscall that can stall the event loop.
    if (!socket.SetNonBlocking().ok()) {
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      {
        MutexLock lock(mu_);
        ++stats_.rejected_capacity;
      }
      if (obs::Enabled()) {
        obs::GetCounter("net.rejected").Add();
      }
      // Best effort: tell the client why before closing. The socket is
      // fresh, so one frame almost always fits the kernel buffer.
      std::string frame = EncodeFrame(
          FrameType::kError,
          EncodeWireStatus(ResourceExhaustedError(StrFormat(
              "server overloaded: %zu connections open", conns_.size()))));
      socket.TryWrite(frame);
      continue;
    }
    socket.SetNoDelay();
    std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(std::move(socket));
    conn->id = id;
    conn->assembler = FrameAssembler(options_.limits);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->socket.fd(), &ev) != 0) {
      continue;
    }
    conn->events = EPOLLIN;
    conns_.emplace(id, std::move(conn));
    {
      MutexLock lock(mu_);
      ++stats_.accepted;
      stats_.open = conns_.size();
    }
    if (obs::Enabled()) {
      obs::GetCounter("net.server.connections").Add();
      obs::GetGauge("net.open_connections").Set(static_cast<std::int64_t>(conns_.size()));
    }
  }
}

void Reactor::HandleReadable(Conn& conn) {
  if (conn.dead() || conn.read_eof || conn.desynced || stopping_) {
    return;
  }
  char buffer[16384];
  bool extracted_frame = false;
  for (;;) {
    IoResult io = conn.socket.TryRead(buffer, sizeof(buffer));
    if (io.state == IoResult::State::kWouldBlock) {
      break;
    }
    if (io.state == IoResult::State::kEof) {
      conn.read_eof = true;
      UpdateInterest(conn);
      on_eof_(conn.id);
      return;
    }
    if (io.state == IoResult::State::kError) {
      MarkDead(conn, io.error);
      return;
    }
    // No rx_bytes accounting here: the assembler's CountRx (wire.cc) already
    // counts every consumed byte when a frame completes; adding the raw read
    // as well would double the reported inbound traffic.
    conn.assembler.Feed(std::string_view(buffer, io.bytes));
    for (;;) {
      StatusOr<std::optional<Frame>> next = conn.assembler.Next();
      if (!next.ok()) {
        conn.desynced = true;
        conn.partial_since_us = 0;
        {
          MutexLock lock(mu_);
          ++stats_.desyncs;
        }
        UpdateInterest(conn);
        on_desync_(conn.id, next.status());
        return;
      }
      if (!next->has_value()) {
        break;
      }
      extracted_frame = true;
      on_frame_(conn.id, std::move(**next));
      if (conn.dead() || conn.desynced || stopping_) {
        return;
      }
    }
  }
  // Track the age of an incomplete frame for the slow-loris sweep. Any
  // complete frame consumed this call re-stamps the timer: a busy pipelined
  // peer whose read batches keep ending mid-frame is making progress, not
  // trickling, and must not accumulate age toward the timeout. A clean frame
  // boundary clears it entirely (idle connections between frames are
  // legitimate and live forever).
  if (conn.assembler.buffered() > 0) {
    if (extracted_frame || conn.partial_since_us == 0) {
      conn.partial_since_us = NowUs();
    }
  } else {
    conn.partial_since_us = 0;
  }
}

void Reactor::HandleWritable(Conn& conn) { FlushOut(conn); }

void Reactor::FlushOut(Conn& conn) {
  if (conn.dead()) {
    return;
  }
  while (!conn.out.empty()) {
    std::string_view remaining = std::string_view(conn.out.front()).substr(conn.out_pos);
    if (fault::Enabled() && !fault::InjectPoint("net.partial_write").ok()) {
      // Short-write injection: this attempt moves a single byte, forcing the
      // resume-from-offset path that a full kernel buffer would.
      remaining = remaining.substr(0, 1);
    }
    IoResult io = conn.socket.TryWrite(remaining);
    if (io.state == IoResult::State::kWouldBlock) {
      break;
    }
    if (io.state != IoResult::State::kOk) {
      MarkDead(conn, io.error.ok() ? UnavailableError("write failed") : io.error);
      return;
    }
    conn.out_pos += io.bytes;
    if (conn.out_pos == conn.out.front().size()) {
      conn.out.pop_front();
      conn.out_pos = 0;
    }
  }
  if (conn.out.empty() && conn.close_after_flush) {
    MarkDead(conn, Status::Ok());
    return;
  }
  UpdateInterest(conn);
}

void Reactor::UpdateInterest(Conn& conn) {
  if (conn.dead()) {
    return;
  }
  std::uint32_t mask = 0;
  if (!conn.read_eof && !conn.desynced && !conn.close_after_flush && !stopping_) {
    mask |= EPOLLIN;
  }
  if (!conn.out.empty()) {
    mask |= EPOLLOUT;
  }
  if (mask != conn.events) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.socket.fd(), &ev);
    conn.events = mask;
  }
}

void Reactor::MarkDead(Conn& conn, Status reason) {
  if (conn.dead()) {
    return;
  }
  conn.is_dead = true;
  conn.death_reason = std::move(reason);
}

Status Reactor::SendFrameLocked(std::uint64_t conn_id, std::string encoded, bool close_after) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->dead()) {
    return NotFoundError("connection closed");
  }
  Conn& conn = *it->second;
  // Frames below this size coalesce into a small tail; larger ones queue
  // as their own buffer.
  constexpr std::size_t kCoalesceBytes = 16u << 10;
  if (!conn.out.empty() && encoded.size() < kCoalesceBytes &&
      conn.out.back().size() < kCoalesceBytes) {
    conn.out.back().append(encoded);
  } else {
    conn.out.push_back(std::move(encoded));
  }
  if (close_after) {
    conn.close_after_flush = true;
  }
  FlushOut(conn);
  return Status::Ok();
}

void Reactor::ApplyOp(Op op) {
  switch (op.kind) {
    case Op::Kind::kSend:
      SendFrameLocked(op.conn_id, std::move(op.bytes), op.close_after);
      break;
    case Op::Kind::kClose: {
      auto it = conns_.find(op.conn_id);
      if (it == conns_.end() || it->second->dead()) {
        break;
      }
      Conn& conn = *it->second;
      conn.close_after_flush = true;
      FlushOut(conn);  // destroys now if already drained
      if (!conn.dead()) {
        UpdateInterest(conn);
      }
      break;
    }
    case Op::Kind::kStopAccepting:
      if (accepting_) {
        accepting_ = false;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        listener_.Close();
      }
      break;
    case Op::Kind::kStop:
      if (!stopping_) {
        stopping_ = true;
        drain_deadline_us_ = NowUs() + op.drain_timeout_ms * 1000;
        if (accepting_) {
          accepting_ = false;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
          listener_.Close();
        }
        for (auto& [id, conn] : conns_) {
          if (!conn->dead()) {
            UpdateInterest(*conn);
          }
        }
      }
      break;
  }
}

void Reactor::SweepPartialFrames(std::int64_t now_us) {
  std::int64_t limit_us = options_.partial_frame_timeout_ms * 1000;
  for (auto& [id, conn] : conns_) {
    if (conn->dead() || conn->partial_since_us == 0) {
      continue;
    }
    if (now_us - conn->partial_since_us > limit_us) {
      {
        MutexLock lock(mu_);
        ++stats_.slow_loris_drops;
      }
      MarkDead(*conn, UnavailableError(StrFormat(
                          "partial frame older than %lld ms dropped (slow loris)",
                          static_cast<long long>(options_.partial_frame_timeout_ms))));
    }
  }
}

void Reactor::DestroyConn(std::uint64_t conn_id, const Status& reason) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->socket.fd(), nullptr);
  conns_.erase(it);
  {
    MutexLock lock(mu_);
    stats_.open = conns_.size();
  }
  if (obs::Enabled()) {
    obs::GetGauge("net.open_connections").Set(static_cast<std::int64_t>(conns_.size()));
  }
  on_close_(conn_id, reason);
}

}  // namespace net
}  // namespace cmif
