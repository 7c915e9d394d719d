#include "src/net/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/net/presentation_wire.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace {

std::uint64_t SteadyNowMicros() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

namespace cmif {
namespace net {

NetServer::NetServer(ServeLoop& loop, NetServerOptions options)
    : loop_(loop), options_(std::move(options)) {
  if (options_.workers < 1) {
    options_.workers = 1;
  }
  if (options_.max_queue_depth < 1) {
    options_.max_queue_depth = 1;
  }
  if (options_.max_connections < 1) {
    options_.max_connections = 1;
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return FailedPreconditionError("server already started");
  }
  documents_.clear();
  profiles_.clear();
  const ServeCorpus& corpus = loop_.corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    documents_[corpus.document(i).name] = i;
  }
  const std::vector<SystemProfile>& profiles = loop_.options().profiles;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles_[profiles[i].name] = i;
  }

  SchedulerOptions sched;
  sched.policy = options_.sched_policy;
  sched.max_queue_depth = options_.max_queue_depth;
  scheduler_ = std::make_unique<RequestScheduler>(sched);
  pool_ = std::make_unique<ThreadPool>(options_.workers);

  ReactorOptions reactor;
  reactor.host = options_.host;
  reactor.port = options_.port;
  reactor.accept_backlog = options_.accept_backlog;
  reactor.max_connections = options_.max_connections;
  reactor.partial_frame_timeout_ms = options_.partial_frame_timeout_ms;
  reactor.limits = options_.limits;
  reactor_ = std::make_unique<Reactor>(
      std::move(reactor),
      [this](std::uint64_t conn_id, Frame frame) { OnFrame(conn_id, std::move(frame)); },
      [this](std::uint64_t conn_id) { OnEof(conn_id); },
      [this](std::uint64_t conn_id, const Status& error) { OnDesync(conn_id, error); },
      [this](std::uint64_t conn_id, const Status&) { OnClosed(conn_id); });
  Status started = reactor_->Start();
  if (!started.ok()) {
    reactor_.reset();
    pool_.reset();
    scheduler_.reset();
    return started;
  }
  {
    MutexLock lock(mu_);
    draining_ = false;
  }
  started_us_ = SteadyNowMicros();
  running_.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  // Graceful ordering: no new connections, no new admissions, every admitted
  // request answered, buffered responses flushed on the wire — and only then
  // is the worker pool torn down.
  reactor_->StopAccepting();
  {
    MutexLock lock(mu_);
    draining_ = true;
    while (outstanding_ > 0) {
      idle_cv_.Wait(lock);
    }
  }
  reactor_->Stop();
  {
    const Reactor::Stats reactor_stats = reactor_->stats();
    MutexLock lock(mu_);
    stats_.connections += reactor_stats.accepted;
    stats_.rejected += reactor_stats.rejected_capacity;
    conns_.clear();
    if (obs::Enabled()) {
      obs::GetGauge("net.queue_depth").Set(0);
    }
  }
  pool_.reset();
}

NetServer::Stats NetServer::stats() const {
  Stats snapshot;
  {
    MutexLock lock(mu_);
    snapshot = stats_;
  }
  if (running_.load(std::memory_order_relaxed) && reactor_) {
    const Reactor::Stats reactor_stats = reactor_->stats();
    snapshot.connections += reactor_stats.accepted;
    snapshot.rejected += reactor_stats.rejected_capacity;
  }
  return snapshot;
}

RequestScheduler::Stats NetServer::scheduler_stats() const {
  return scheduler_ ? scheduler_->stats() : RequestScheduler::Stats{};
}

std::uint64_t NetServer::AssignSlot(std::uint64_t conn_id) {
  MutexLock lock(mu_);
  ConnState& conn = conns_[conn_id];
  const std::uint64_t slot = conn.next_slot++;
  conn.slots.emplace_back();
  return slot;
}

NetServer::OutFrame NetServer::Outgoing(std::string encoded) {
  OutFrame frame;
  frame.dropped = !Reactor::ApplySendFaults(encoded).ok();
  frame.bytes = std::move(encoded);
  return frame;
}

void NetServer::CompleteSlot(std::uint64_t conn_id, std::uint64_t slot, FrameType type,
                             std::string_view payload, std::uint8_t version, bool close_after) {
  std::vector<OutFrame> frames;
  frames.push_back(Outgoing(EncodeFrame(type, payload, version)));
  CompleteSlotFrames(conn_id, slot, std::move(frames), close_after);
}

void NetServer::CompleteSlotFrames(std::uint64_t conn_id, std::uint64_t slot,
                                   std::vector<OutFrame> frames, bool close_after) {
  // Every frame arrives here encoded — CRC, copies and fault hooks were paid
  // on the calling worker — so mu_ covers only bookkeeping and the hand-off.
  // The ready prefix is popped AND handed to the reactor while still holding
  // mu_. Releasing the lock between the pop and SendEncoded would open a
  // race: a worker completing slot N+1 could post its response to the
  // reactor's FIFO mailbox before the preempted worker that popped slot N,
  // flushing responses out of request order (clients match responses
  // positionally — the protocol has no request ids). SendEncoded only takes
  // the reactor's own mailbox lock and the reactor never acquires mu_ while
  // holding it, so there is no lock cycle. A multi-frame slot (a stream) is
  // posted to the mailbox frame-by-frame inside the same locked section, so
  // its sequence is as atomic as a single response.
  MutexLock lock(mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;  // connection died while the request was in flight
  }
  ConnState& conn = it->second;
  if (conn.dropped || slot < conn.base_slot) {
    return;
  }
  const std::size_t index = static_cast<std::size_t>(slot - conn.base_slot);
  if (index >= conn.slots.size()) {
    return;
  }
  Slot& pending = conn.slots[index];
  pending.ready = true;
  pending.close_after = close_after;
  pending.frames = std::move(frames);
  while (!conn.slots.empty() && conn.slots.front().ready) {
    Slot next = std::move(conn.slots.front());
    conn.slots.pop_front();
    ++conn.base_slot;
    // conn.eof && slots.empty() can only hold on the final pop, so this is
    // the old "close once the pipeline drains after EOF" condition.
    const bool close = next.close_after || (conn.eof && conn.slots.empty());
    for (std::size_t i = 0; i < next.frames.size(); ++i) {
      if (next.frames[i].dropped) {
        // The injected write failure drops the connection after whatever
        // went out before this frame.
        conn.dropped = true;
        reactor_->CloseConnection(conn_id);
        return;
      }
      // kNotFound (connection raced away) is not worth propagating: the
      // response had nowhere to go.
      const bool last = i + 1 == next.frames.size();
      (void)reactor_->SendEncoded(conn_id, std::move(next.frames[i].bytes), close && last);
    }
  }
}

void NetServer::BumpProtocolErrors() {
  MutexLock lock(mu_);
  ++stats_.protocol_errors;
}

PresentResponse NetServer::ShedResponse(const Status& reason) const {
  PresentResponse response;
  response.outcome = ServeOutcome::kFailed;
  response.attempts = 0;
  response.error = reason;
  response.shed = true;
  return response;
}

void NetServer::OnFrame(std::uint64_t conn_id, Frame frame) {
  switch (frame.type) {
    case FrameType::kPing: {
      const std::uint64_t slot = AssignSlot(conn_id);
      CompleteSlot(conn_id, slot, FrameType::kPong, frame.payload, frame.version);
      return;
    }
    case FrameType::kStatsRequest: {
      // A telemetry probe, not a compile: answered inline with a snapshot of
      // the live counters so monitoring never queues behind a slow request.
      const std::uint64_t slot = AssignSlot(conn_id);
      CompleteSlot(conn_id, slot, FrameType::kStatsResponse,
                   EncodeStatsSnapshot(Snapshot(), frame.version), frame.version);
      return;
    }
    case FrameType::kRequest: {
      StatusOr<PresentRequest> request = DecodeRequest(frame.payload, frame.version);
      if (!request.ok()) {
        BumpProtocolErrors();
        const std::uint64_t slot = AssignSlot(conn_id);
        CompleteSlot(conn_id, slot, FrameType::kError, EncodeWireStatus(request.status()),
                     frame.version, /*close_after=*/true);
        return;
      }
      const std::uint64_t slot = AssignSlot(conn_id);
      const std::uint8_t version = frame.version;
      Admit(std::move(*request),
            [this, conn_id, slot, version](PresentResponse response,
                                           std::shared_ptr<const CompiledPresentation>) {
              const std::string payload = EncodeResponse(response, version);
              response = PresentResponse();  // a blob's blocks are in `payload` now
              CompleteSlot(conn_id, slot, FrameType::kResponse, payload, version);
            });
      return;
    }
    case FrameType::kStreamRequest: {
      StatusOr<StreamRequest> request = DecodeStreamRequest(frame.payload, frame.version);
      if (!request.ok()) {
        BumpProtocolErrors();
        const std::uint64_t slot = AssignSlot(conn_id);
        CompleteSlot(conn_id, slot, FrameType::kError, EncodeWireStatus(request.status()),
                     frame.version, /*close_after=*/true);
        return;
      }
      const std::uint64_t slot = AssignSlot(conn_id);
      const std::uint8_t version = frame.version;
      auto stream = std::make_shared<StreamRequest>(std::move(*request));
      // The stream prefix must never carry inline blocks (chunks are the
      // delivery path); a client asking for both gets the stream.
      stream->request.want_blocks = false;
      PresentRequest inner = stream->request;
      Admit(std::move(inner),
            [this, conn_id, slot, version, stream](
                PresentResponse response,
                std::shared_ptr<const CompiledPresentation> presentation) {
              CompleteStream(conn_id, slot, *stream, std::move(response),
                             std::move(presentation), version);
            });
      return;
    }
    case FrameType::kStreamAck: {
      // One-way delivery telemetry: no response slot. A malformed ack still
      // desynchronizes the stream's framing contract, so it errors + closes
      // like any other bad payload.
      StatusOr<StreamAck> ack = DecodeStreamAck(frame.payload, frame.version);
      if (!ack.ok()) {
        BumpProtocolErrors();
        const std::uint64_t slot = AssignSlot(conn_id);
        CompleteSlot(conn_id, slot, FrameType::kError, EncodeWireStatus(ack.status()),
                     frame.version, /*close_after=*/true);
        return;
      }
      stream_stalls_.fetch_add(ack->stalls, std::memory_order_relaxed);
      return;
    }
    case FrameType::kBatchRequest: {
      StatusOr<std::vector<PresentRequest>> requests =
          DecodeBatchRequest(frame.payload, frame.version);
      if (!requests.ok()) {
        BumpProtocolErrors();
        const std::uint64_t slot = AssignSlot(conn_id);
        CompleteSlot(conn_id, slot, FrameType::kError, EncodeWireStatus(requests.status()),
                     frame.version, /*close_after=*/true);
        return;
      }
      const std::uint64_t slot = AssignSlot(conn_id);
      const std::uint8_t version = frame.version;
      if (requests->empty()) {
        CompleteSlot(conn_id, slot, FrameType::kBatchResponse, EncodeBatchResponse({}, version),
                     version);
        return;
      }
      // Each batch element is scheduled independently (EDF interleaves them
      // with every other connection's work); the batch answers as one frame
      // once the last element lands.
      auto batch = std::make_shared<BatchState>();
      batch->responses.resize(requests->size());
      batch->remaining.store(requests->size(), std::memory_order_relaxed);
      for (std::size_t i = 0; i < requests->size(); ++i) {
        Admit(std::move((*requests)[i]),
              [this, conn_id, slot, version, batch, i](
                  PresentResponse response, std::shared_ptr<const CompiledPresentation>) {
                batch->responses[i] = std::move(response);
                if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                  CompleteSlot(conn_id, slot, FrameType::kBatchResponse,
                               EncodeBatchResponse(batch->responses, version), version);
                }
              });
      }
      return;
    }
    default: {
      BumpProtocolErrors();
      const std::uint64_t slot = AssignSlot(conn_id);
      CompleteSlot(conn_id, slot, FrameType::kError,
                   EncodeWireStatus(InvalidArgumentError(StrFormat(
                       "unexpected %s frame",
                       std::string(FrameTypeName(frame.type)).c_str()))),
                   frame.version, /*close_after=*/true);
      return;
    }
  }
}

void NetServer::OnEof(std::uint64_t conn_id) {
  bool close_now = false;
  {
    MutexLock lock(mu_);
    ConnState& conn = conns_[conn_id];
    conn.eof = true;
    close_now = conn.slots.empty();
  }
  if (close_now) {
    reactor_->CloseConnection(conn_id);
  }
}

void NetServer::OnDesync(std::uint64_t conn_id, const Status& error) {
  BumpProtocolErrors();
  // The error frame takes a slot like any response, so pipelined requests
  // already in flight still answer (in order) before the connection drops.
  // Encoded at the minimum supported version: after a desync we no longer
  // know what the peer speaks, and v2 is readable by everyone.
  const std::uint64_t slot = AssignSlot(conn_id);
  CompleteSlot(conn_id, slot, FrameType::kError, EncodeWireStatus(error), kMinWireVersion,
               /*close_after=*/true);
}

void NetServer::OnClosed(std::uint64_t conn_id) {
  MutexLock lock(mu_);
  conns_.erase(conn_id);
}

void NetServer::Admit(PresentRequest request, Completion done) {
  // Wraps `done` with the per-request accounting every completion path
  // (served, degraded, shed) shares.
  auto finish = [this, done = std::move(done)](
                    PresentResponse response,
                    std::shared_ptr<const CompiledPresentation> presentation) {
    if (response.outcome == ServeOutcome::kFailed) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    } else if (response.outcome == ServeOutcome::kDegraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      MutexLock lock(mu_);
      ++stats_.requests;
      if (response.shed) {
        ++stats_.shed;
      }
    }
    if (obs::Enabled()) {
      obs::GetCounter("net.server.requests").Add();
    }
    done(std::move(response), std::move(presentation));
  };

  bool draining = false;
  {
    MutexLock lock(mu_);
    draining = draining_;
    if (!draining) {
      ++outstanding_;
    }
  }
  if (draining) {
    finish(ShedResponse(UnavailableError("server draining")), nullptr);
    return;
  }

  const std::int64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : options_.default_deadline_ms;
  auto work = [this, request = std::move(request),
               finish](RequestScheduler::Item& item) mutable {
    std::shared_ptr<const CompiledPresentation> presentation;
    PresentResponse response = Process(request, item, &presentation);
    finish(std::move(response), std::move(presentation));
    MutexLock lock(mu_);
    if (--outstanding_ == 0) {
      idle_cv_.NotifyAll();
    }
  };
  Status admitted = scheduler_->Enqueue(deadline_ms, std::move(work));
  if (!admitted.ok()) {
    finish(ShedResponse(admitted), nullptr);
    MutexLock lock(mu_);
    if (--outstanding_ == 0) {
      idle_cv_.NotifyAll();
    }
    return;
  }
  if (obs::Enabled()) {
    obs::GetGauge("net.queue_depth").Set(static_cast<std::int64_t>(scheduler_->depth()));
  }
  // The ticket pattern: the pool's own queue stays FIFO, but each ticket
  // dequeues from the scheduler at execution time, so EDF decides which
  // admitted request the freed worker actually runs.
  pool_->Run([this] {
    std::optional<RequestScheduler::Item> item = scheduler_->Dequeue();
    if (item && item->work) {
      item->work(*item);
    }
  });
}

PresentResponse NetServer::Process(const PresentRequest& request,
                                   const RequestScheduler::Item& item,
                                   std::shared_ptr<const CompiledPresentation>* presentation) {
  const auto start = std::chrono::steady_clock::now();
  // Adopt the client's trace context, or start a server-local trace for the
  // configured fraction of untraced requests. The context is installed for
  // the whole handling scope so every span below (serve, pipeline, sched)
  // carries the trace id.
  obs::TraceContext ctx = request.trace;
  if (!ctx.valid() && options_.trace_sample_rate > 0) {
    ctx = obs::NewTrace(options_.trace_sample_rate);
  }
  PresentResponse response;
  bool sampled = false;
  const double queue_wait_ms = static_cast<double>(item.queue_wait_us) / 1000.0;
  {
    obs::ScopedTrace scoped_trace(ctx);
    obs::Span span("net-request");
    obs::ScopedLatency latency("net.request_ms");
    span.Annotate("document", request.document);
    span.Annotate("sched_policy", std::string(SchedPolicyName(scheduler_->policy())));
    span.Annotate("queue_wait_ms", queue_wait_ms);
    if (request.deadline_ms > 0) {
      span.Annotate("deadline_ms", request.deadline_ms);
    }
    if (obs::Enabled() && item.queue_wait_us > 0) {
      // The queue wait already happened (it started at enqueue, on the
      // reactor thread) — emit it as an explicit-timing span so `request
      // --trace` shows time-in-queue ahead of the serve spans.
      const double now_us = obs::detail::NowMicros();
      obs::EmitSpan("net-queue", now_us - static_cast<double>(item.queue_wait_us),
                    static_cast<double>(item.queue_wait_us),
                    {{"policy",
                      "\"" + std::string(SchedPolicyName(scheduler_->policy())) + "\""}});
    }
    if (item.expired) {
      response = request.allow_degraded
                     ? HandleExpired(request, presentation)
                     : ShedResponse(ResourceExhaustedError(
                           "deadline expired in scheduler queue"));
    } else {
      response = HandleRequest(request, presentation);
    }
    response.queue_ms = queue_wait_ms;
    span.Annotate("outcome", std::string(ServeOutcomeName(response.outcome)));
    if (response.shed) {
      span.Annotate("shed", std::int64_t{1});
    }
    // Read back through CurrentTrace(): an anomaly during handling (retry,
    // breaker open, degraded compile) force-samples an unsampled trace.
    sampled = ctx.valid() && obs::CurrentTrace().sampled;
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  request_ms_.Record(elapsed_ms);

  if (sampled && obs::Enabled()) {
    // Harvest this trace's spans (removing them — a long-lived server's span
    // memory stays bounded) and hand them back on the response.
    std::vector<obs::SpanRecord> harvested = obs::TakeTraceSpans(ctx.trace_id);
    std::sort(harvested.begin(), harvested.end(),
              [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                return a.start_us < b.start_us;
              });
    if (harvested.size() > options_.max_response_spans) {
      harvested.resize(options_.max_response_spans);
    }
    response.server_spans.reserve(harvested.size());
    for (const obs::SpanRecord& record : harvested) {
      WireSpan wire;
      wire.name = record.name;
      wire.id = record.id;
      wire.parent_id = record.parent_id;
      wire.trace_id = record.trace_id;
      wire.start_us = record.start_us;
      wire.duration_us = record.duration_us;
      wire.tid = record.tid;
      response.server_spans.push_back(std::move(wire));
    }
    traces_sampled_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (exemplars_.size() < kMaxExemplars) {
      exemplars_.push_back(ctx.trace_id);
    } else {
      exemplars_[exemplar_next_ % kMaxExemplars] = ctx.trace_id;
    }
    ++exemplar_next_;
  }
  return response;
}

StatusOr<ServeRequest> NetServer::Resolve(const PresentRequest& request) const {
  auto doc = documents_.find(request.document);
  if (doc == documents_.end()) {
    return NotFoundError("unknown document '" + request.document + "'");
  }
  ServeRequest serve_request;
  serve_request.document = doc->second;
  if (!request.profile.empty()) {
    auto profile = profiles_.find(request.profile);
    if (profile == profiles_.end()) {
      return NotFoundError("unknown profile '" + request.profile + "'");
    }
    serve_request.profile = profile->second;
  }
  return serve_request;
}

PresentResponse NetServer::HandleExpired(const PresentRequest& request,
                                         std::shared_ptr<const CompiledPresentation>* presentation) {
  const Status reason = ResourceExhaustedError("deadline expired in scheduler queue");
  PresentResponse response;
  StatusOr<ServeRequest> serve_request = Resolve(request);
  if (!serve_request.ok()) {
    response.error = serve_request.status();
    return response;
  }
  ServeResponse served = loop_.ServeStale(*serve_request, reason);
  response.attempts = served.attempts;
  response.cache_hit = served.cache_hit;
  response.error = served.error;
  if (!served.served()) {
    // Nothing cached either: the request is shed outright.
    return ShedResponse(reason);
  }
  response.outcome = served.outcome;
  if (served.outcome == ServeOutcome::kDegraded) {
    MutexLock lock(mu_);
    ++stats_.degraded_deadline;
  }
  if (presentation != nullptr) {
    *presentation = served.presentation;
  }
  std::string body = SerializePresentation(*served.presentation, request.channels);
  response.presentation_hash = Fnv1a64(body);
  if (request.want_body) {
    response.presentation = std::move(body);
  }
  return response;
}

StatsSnapshot NetServer::Snapshot() const {
  StatsSnapshot snapshot;
  snapshot.uptime_us =
      running_.load(std::memory_order_relaxed) ? SteadyNowMicros() - started_us_ : 0;
  const Stats totals = stats();
  snapshot.connections = totals.connections;
  snapshot.rejected = totals.rejected;
  snapshot.requests = totals.requests;
  snapshot.protocol_errors = totals.protocol_errors;
  snapshot.queue_depth = scheduler_ ? scheduler_->depth() : 0;
  {
    MutexLock lock(mu_);
    snapshot.exemplar_trace_ids = exemplars_;
  }
  snapshot.failed = failed_.load(std::memory_order_relaxed);
  snapshot.degraded = degraded_.load(std::memory_order_relaxed);
  snapshot.request_count = request_ms_.count();
  snapshot.request_ms_min = request_ms_.min();
  snapshot.request_ms_max = request_ms_.max();
  snapshot.request_ms_mean = request_ms_.mean();
  snapshot.request_ms_p50 = request_ms_.Percentile(50);
  snapshot.request_ms_p95 = request_ms_.Percentile(95);
  snapshot.request_ms_p99 = request_ms_.Percentile(99);
  const MappingCache::Stats cache = loop_.cache().stats();
  snapshot.cache_hits = static_cast<std::uint64_t>(cache.hits);
  snapshot.cache_misses = static_cast<std::uint64_t>(cache.misses);
  snapshot.cache_stale_hits = static_cast<std::uint64_t>(cache.stale_hits);
  snapshot.cache_evictions = static_cast<std::uint64_t>(cache.evictions);
  snapshot.cache_entries = static_cast<std::uint64_t>(cache.entries);
  if (PersistentCache* pcache = loop_.pcache()) {
    const PersistentCache::Stats disk = pcache->stats();
    snapshot.pcache_enabled = true;
    snapshot.pcache_hits = disk.hits;
    snapshot.pcache_misses = disk.misses;
    snapshot.pcache_writes = disk.writes;
    snapshot.pcache_quarantined = disk.quarantined;
    snapshot.pcache_entries = static_cast<std::uint64_t>(disk.entries);
    snapshot.pcache_disk_bytes = disk.disk_bytes;
  }
  for (const auto& [site, state] : loop_.breakers().States()) {
    snapshot.breakers.emplace_back(site, static_cast<std::uint8_t>(state));
  }
  snapshot.breaker_opens = static_cast<std::uint64_t>(loop_.breakers().TotalOpens());
  snapshot.anomalies = obs::AnomalyCount();
  snapshot.traces_sampled = traces_sampled_.load(std::memory_order_relaxed);
  snapshot.sample_rate = options_.trace_sample_rate;
  snapshot.streams = streams_.load(std::memory_order_relaxed);
  snapshot.stream_chunks = stream_chunks_.load(std::memory_order_relaxed);
  snapshot.stream_bytes = stream_bytes_.load(std::memory_order_relaxed);
  snapshot.stream_full_bytes = stream_full_bytes_.load(std::memory_order_relaxed);
  snapshot.stream_resumes = stream_resumes_.load(std::memory_order_relaxed);
  snapshot.stream_stalls = stream_stalls_.load(std::memory_order_relaxed);
  return snapshot;
}

PresentResponse NetServer::HandleRequest(const PresentRequest& request,
                                         std::shared_ptr<const CompiledPresentation>* presentation) {
  PresentResponse response;
  StatusOr<ServeRequest> serve_request = Resolve(request);
  if (!serve_request.ok()) {
    response.error = serve_request.status();
    return response;
  }
  ServeResponse served = loop_.Serve(*serve_request);
  response.attempts = served.attempts;
  response.cache_hit = served.cache_hit;
  response.error = served.error;
  if (!served.served() ||
      (served.outcome == ServeOutcome::kDegraded && !request.allow_degraded)) {
    response.outcome = ServeOutcome::kFailed;
    if (response.error.ok()) {
      response.error = UnavailableError("degraded response refused by request");
    }
    return response;
  }
  response.outcome = served.outcome;
  if (presentation != nullptr) {
    *presentation = served.presentation;
  }
  std::string body = SerializePresentation(*served.presentation, request.channels);
  response.presentation_hash = Fnv1a64(body);
  if (request.want_body) {
    response.presentation = std::move(body);
  }
  if (request.want_blocks) {
    // v4 blob delivery: the same plan the stream path would send, inline.
    // A plan failure leaves blocks empty rather than failing a request that
    // already served its presentation.
    StatusOr<std::shared_ptr<const StreamPlan>> plan =
        loop_.StreamPlanFor(*serve_request, *served.presentation, request.channels);
    if (plan.ok()) {
      const StreamPlan& delivery = **plan;
      response.blocks.reserve(delivery.blocks.size());
      for (const PrefetchBlock& block : delivery.blocks) {
        WireBlock wire;
        wire.descriptor_id = block.descriptor_id;
        wire.payload = delivery.bytes.substr(static_cast<std::size_t>(block.offset),
                                             static_cast<std::size_t>(block.bytes));
        response.blocks.push_back(std::move(wire));
      }
    }
  }
  return response;
}

void NetServer::CompleteStream(std::uint64_t conn_id, std::uint64_t slot,
                               const StreamRequest& stream, PresentResponse response,
                               std::shared_ptr<const CompiledPresentation> presentation,
                               std::uint8_t version) {
  // Nothing to stream (failed/shed serve, or a v<4 frame that should not
  // have carried a stream request): answer the plain response — the client
  // treats a kResponse where it expected kStreamBegin as its blob fallback.
  StatusOr<std::shared_ptr<const StreamPlan>> planned = InternalError("no presentation");
  if (version >= 4 && presentation != nullptr && !response.shed &&
      response.outcome != ServeOutcome::kFailed) {
    if (StatusOr<ServeRequest> serve_request = Resolve(stream.request); serve_request.ok()) {
      planned = loop_.StreamPlanFor(*serve_request, *presentation, stream.request.channels);
    }
  }
  if (!planned.ok()) {
    CompleteSlot(conn_id, slot, FrameType::kResponse, EncodeResponse(response, version),
                 version);
    return;
  }
  // Shared and immutable (possibly the memoized plan other streams are
  // reading right now): chunks are framed straight from views into it.
  const StreamPlan& plan = **planned;
  const std::string_view bytes = plan.bytes;

  const std::uint64_t chunk_bytes =
      std::clamp<std::uint64_t>(stream.chunk_bytes, kMinChunkBytes, kMaxChunkBytes);
  const std::uint64_t total_chunks = StreamChunkCount(plan.total_bytes(), chunk_bytes);
  const std::uint64_t stream_id =
      DeriveStreamId(response.presentation_hash, plan.payload_hash, chunk_bytes);
  // A resume is honored only when it names this exact byte stream; anything
  // else (a recompile, a different chunk size) restarts from chunk 0.
  std::uint64_t resumed_from = 0;
  if (stream.resume_stream_id == stream_id && stream.resume_chunks <= total_chunks) {
    resumed_from = stream.resume_chunks;
  }

  StreamBegin begin;
  begin.stream_id = stream_id;
  begin.prefix = std::move(response);
  begin.prefix.blocks.clear();  // chunks are the delivery path
  begin.chunk_bytes = chunk_bytes;
  begin.total_chunks = total_chunks;
  begin.payload_hash = plan.payload_hash;
  begin.resumed_from = resumed_from;
  begin.manifest.reserve(plan.blocks.size());
  for (const PrefetchBlock& block : plan.blocks) {
    StreamBlockInfo info;
    info.descriptor_id = block.descriptor_id;
    info.bytes = block.bytes;
    info.first_need = block.first_need;
    begin.manifest.push_back(std::move(info));
  }

  // Every frame is encoded here, on the worker, before the sequencer lock.
  std::vector<OutFrame> frames;
  frames.reserve(static_cast<std::size_t>(total_chunks - resumed_from) + 2);
  frames.push_back(
      Outgoing(EncodeFrame(FrameType::kStreamBegin, EncodeStreamBegin(begin, version), version)));
  std::uint64_t chunks_sent = 0;
  std::uint64_t bytes_sent = 0;
  bool cut = false;
  std::string corrupted;
  for (std::uint64_t index = resumed_from; index < total_chunks; ++index) {
    // Chunk-level chaos: a "drop" cuts the stream mid-flight (the client
    // reconnects and resumes at its chunk boundary); a "corrupt" flips
    // payload bytes *before* framing, so the frame CRC passes and only the
    // end-to-end payload hash catches it. The flip lands in a per-request
    // copy, never in the shared plan.
    if (!fault::InjectPoint("net.chunk.drop").ok()) {
      cut = true;
      break;
    }
    const std::size_t offset = static_cast<std::size_t>(index * chunk_bytes);
    std::string_view payload = bytes.substr(offset, static_cast<std::size_t>(chunk_bytes));
    if (fault::Enabled()) {
      corrupted.assign(payload);
      if (fault::MaybeCorrupt("net.chunk.corrupt", corrupted)) {
        payload = corrupted;
      }
    }
    ++chunks_sent;
    bytes_sent += payload.size();
    frames.push_back(Outgoing(EncodeStreamChunkFrame(stream_id, index, payload, version)));
  }
  if (!cut) {
    StreamEnd end;
    end.stream_id = stream_id;
    end.total_chunks = total_chunks;
    end.payload_hash = plan.payload_hash;
    frames.push_back(
        Outgoing(EncodeFrame(FrameType::kStreamEnd, EncodeStreamEnd(end, version), version)));
  }

  streams_.fetch_add(1, std::memory_order_relaxed);
  stream_chunks_.fetch_add(chunks_sent, std::memory_order_relaxed);
  stream_bytes_.fetch_add(bytes_sent, std::memory_order_relaxed);
  stream_full_bytes_.fetch_add(plan.total_bytes(), std::memory_order_relaxed);
  if (resumed_from > 0) {
    stream_resumes_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::Enabled()) {
    obs::GetCounter("net.server.streams").Add();
    obs::GetCounter("net.server.stream_chunks").Add(static_cast<std::int64_t>(chunks_sent));
  }
  // A cut stream closes the connection after the partial flush, exactly
  // like a mid-transfer network failure would.
  CompleteSlotFrames(conn_id, slot, std::move(frames), /*close_after=*/cut);
}

}  // namespace net
}  // namespace cmif
