#include "perfbench/src/clients.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <optional>

namespace perfbench {
namespace {

namespace net = api::net;

// How long answers may keep arriving after a viewer window closes.
constexpr double kDrainUs = 20e6;
// Mismatch and failure details printed per run, at most.
constexpr int kMaxComplaints = 5;

void Complain(int* budget, const std::string& what) {
  if (*budget > 0) {
    --*budget;
    std::cerr << "perfbench: " << what << "\n";
  }
}

bool ServedHealthy(const api::PresentResponse& response) {
  return !response.shed && (response.outcome == cmif::ServeOutcome::kHealthy ||
                            response.outcome == cmif::ServeOutcome::kRecovered);
}

}  // namespace

ViewerResult RunViewers(const Rig& rig, const std::map<ViewKey, Expected>& expected,
                        const ViewerPlan& plan, SpanSink* sink) {
  ViewerResult result;
  int complaints = kMaxComplaints;
  auto connected = cmif::ConnectTcp("127.0.0.1", rig.port(), 0);
  if (!connected.ok() || !connected->SetNoDelay().ok() || !connected->SetNonBlocking().ok()) {
    std::cerr << "perfbench: viewer connect failed\n";
    std::exit(1);
  }
  cmif::Socket socket = std::move(*connected);
  net::FrameAssembler assembler;

  struct InFlight {
    ViewKey key;
    double due_us = 0;
    double sent_us = 0;
    std::uint64_t op = 0;
  };
  std::deque<InFlight> in_flight;
  std::string out;
  std::size_t out_pos = 0;
  std::vector<char> buffer(256 << 10);

  const std::size_t total = static_cast<std::size_t>(std::llround(plan.rate_rps * plan.seconds));
  const double interval_us = 1e6 / plan.rate_rps;
  const double start_us = NowUs() + 1000;
  const double mid_us = start_us + plan.seconds * 0.5e6;
  const double end_us = start_us + plan.seconds * 1e6;
  bool mid_taken = false;
  bool end_taken = false;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool broken = false;

  auto fail_rest = [&] {
    result.counts.failed += in_flight.size() + (total - next);
    result.counts.transport += in_flight.size() + (total - next);
    result.counts.attempted += total - next;
  };

  while (answered < total) {
    double now = NowUs();
    while (next < total && start_us + static_cast<double>(next) * interval_us <= now) {
      const ViewKey& key = plan.keys[next % plan.keys.size()];
      const std::uint64_t op = plan.op_base + next + 1;
      api::PresentRequest request = rig.RequestFor(key);
      {
        ScopedSpan span(sink, "net.request_encode", op);
        out += net::EncodeFrame(net::FrameType::kRequest, net::EncodeRequest(request));
      }
      const double due = start_us + static_cast<double>(next) * interval_us;
      const double sent = NowUs();
      in_flight.push_back({key, due, sent, op});
      result.lateness_ms.Add((sent - due) / 1000.0);
      ++result.counts.attempted;
      if (next + 1 == total) {
        result.last_request = std::move(request);
      }
      ++next;
    }
    while (out_pos < out.size()) {
      cmif::IoResult io = socket.TryWrite(std::string_view(out).substr(out_pos));
      if (io.state == cmif::IoResult::State::kOk) {
        out_pos += io.bytes;
      } else if (io.state == cmif::IoResult::State::kWouldBlock) {
        break;
      } else {
        broken = true;
        break;
      }
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }
    if (broken) {
      Complain(&complaints, "viewer connection failed while sending");
      fail_rest();
      break;
    }

    now = NowUs();
    if (!mid_taken && now >= mid_us) {
      mid_taken = true;
      std::size_t due = std::min(total, static_cast<std::size_t>((now - start_us) / interval_us) + 1);
      result.backlog_mid = due - answered;
    }
    if (!end_taken && now >= end_us) {
      end_taken = true;
      result.backlog_end = total - answered;
    }
    if (next == total && now > end_us + kDrainUs) {
      Complain(&complaints, "viewer answers still missing after the drain timeout");
      fail_rest();
      break;
    }

    double wait_us = next < total ? start_us + static_cast<double>(next) * interval_us - now
                                  : 1000.0;
    wait_us = std::clamp(wait_us, 0.0, 1000.0);
    struct pollfd pfd;
    pfd.fd = socket.fd();
    pfd.events = static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT));
    pfd.revents = 0;
    struct timespec timeout;
    timeout.tv_sec = 0;
    timeout.tv_nsec = static_cast<long>(wait_us * 1000.0);
    if (ppoll(&pfd, 1, &timeout, nullptr) < 0 && errno != EINTR) {
      broken = true;
    }
    if ((pfd.revents & POLLIN) != 0) {
      for (;;) {
        cmif::IoResult io = socket.TryRead(buffer.data(), buffer.size());
        if (io.state == cmif::IoResult::State::kOk) {
          assembler.Feed(std::string_view(buffer.data(), io.bytes));
          continue;
        }
        if (io.state != cmif::IoResult::State::kWouldBlock) {
          broken = true;
        }
        break;
      }
    }
    for (;;) {
      auto frame = assembler.Next();
      if (!frame.ok()) {
        broken = true;
        break;
      }
      if (!frame->has_value()) {
        break;
      }
      if (in_flight.empty()) {
        Complain(&complaints, "viewer received an answer nobody asked for");
        broken = true;
        break;
      }
      InFlight request = in_flight.front();
      in_flight.pop_front();
      ++answered;
      net::Frame& f = **frame;
      if (f.type != net::FrameType::kResponse) {
        ++result.counts.failed;
        ++result.counts.transport;
        Complain(&complaints, "viewer got a non-response frame");
        continue;
      }
      cmif::StatusOr<api::PresentResponse> response = cmif::InternalError("unset");
      {
        ScopedSpan span(sink, "net.response_decode", request.op);
        response = net::DecodeResponse(f.payload, f.version);
      }
      const double done_us = NowUs();
      if (sink != nullptr) {
        sink->Emit("net.view", request.due_us, done_us - request.due_us, request.op);
      }
      if (!response.ok()) {
        ++result.counts.failed;
        ++result.counts.transport;
        Complain(&complaints, "viewer response did not decode: " + response.status().ToString());
        continue;
      }
      if (response->shed) {
        ++result.counts.shed;
      }
      if (!ServedHealthy(*response)) {
        ++result.counts.failed;
        Complain(&complaints, "viewer request not served healthy: " + response->error.ToString());
        continue;
      }
      const Expected& want = expected.at(request.key);
      if (response->presentation_hash != want.hash || response->presentation != want.body) {
        ++result.counts.failed;
        ++result.counts.mismatched;
        Complain(&complaints, "MISMATCH: viewer answer for " + rig.RequestFor(request.key).document +
                                  " differs from the in-process compile");
        continue;
      }
      result.latency_ms.Add(request.due_us, (done_us - request.due_us) / 1000.0);
      result.rtt_ms.Add((done_us - request.sent_us) / 1000.0);
      result.queue_ms.Add(response->queue_ms);
      if (answered == total) {
        result.last_response_payload = std::move(f.payload);
      }
    }
    if (broken) {
      Complain(&complaints, "viewer connection failed while receiving");
      fail_rest();
      break;
    }
  }
  if (!end_taken) {
    result.backlog_end = 0;
  }
  return result;
}

FrameConn::FrameConn(int port) {
  auto connected = cmif::ConnectTcp("127.0.0.1", port, 30000);
  if (!connected.ok() || !connected->SetNoDelay().ok()) {
    std::cerr << "perfbench: actor connect failed\n";
    std::exit(1);
  }
  socket_ = std::move(*connected);
}

cmif::Status FrameConn::Send(const std::string& frame_bytes) {
  return socket_.WriteAll(frame_bytes);
}

cmif::StatusOr<api::net::Frame> FrameConn::Receive() {
  CMIF_ASSIGN_OR_RETURN(std::optional<net::Frame> frame, net::ReadFrame(socket_));
  if (!frame.has_value()) {
    return cmif::UnavailableError("server closed the connection");
  }
  return std::move(*frame);
}

ViewOutcome FetchView(FrameConn& conn, const api::PresentRequest& request, SpanSink* sink,
                      std::uint64_t op) {
  ViewOutcome outcome;
  std::string bytes;
  {
    ScopedSpan span(sink, "net.request_encode", op);
    bytes = net::EncodeFrame(net::FrameType::kRequest, net::EncodeRequest(request));
  }
  if (!conn.Send(bytes).ok()) {
    return outcome;
  }
  auto frame = conn.Receive();
  if (!frame.ok() || frame->type != net::FrameType::kResponse) {
    return outcome;
  }
  ScopedSpan span(sink, "net.response_decode", op);
  auto response = net::DecodeResponse(frame->payload, frame->version);
  if (!response.ok()) {
    return outcome;
  }
  outcome.response = std::move(*response);
  outcome.ok = true;
  return outcome;
}

namespace {

// One attempt at a streamed transfer; `restart` marks a refetch.
StreamOutcome StreamOnce(FrameConn& conn, const api::PresentRequest& request, SpanSink* sink,
                         std::uint64_t op) {
  StreamOutcome outcome;
  const double t0 = NowUs();
  std::string bytes;
  {
    ScopedSpan span(sink, "net.request_encode", op);
    net::StreamRequest open;
    open.request = request;
    bytes = net::EncodeFrame(net::FrameType::kStreamRequest, net::EncodeStreamRequest(open));
  }
  if (!conn.Send(bytes).ok()) {
    return outcome;
  }
  net::StreamReassembler reassembler;
  std::uint64_t first_frame_bytes = 0;
  {
    ScopedSpan span(sink, "net.stream_begin", op);
    auto frame = conn.Receive();
    if (!frame.ok() || frame->type != net::FrameType::kStreamBegin) {
      return outcome;
    }
    auto begin = net::DecodeStreamBegin(frame->payload, frame->version);
    if (!begin.ok() || !reassembler.Begin(*begin).ok()) {
      return outcome;
    }
    // First frame = the prefix plus every block the schedule needs at its
    // earliest first_need; the manifest is in delivery order, so those
    // blocks are in hand once the payload reaches the furthest one's end.
    std::uint64_t offset = 0;
    std::optional<cmif::MediaTime> earliest;
    for (const net::StreamBlockInfo& block : begin->manifest) {
      if (!earliest.has_value() || block.first_need < *earliest) {
        earliest = block.first_need;
      }
    }
    for (const net::StreamBlockInfo& block : begin->manifest) {
      offset += block.bytes;
      if (block.first_need == *earliest) {
        first_frame_bytes = offset;
      }
    }
    outcome.prefix = std::move(begin->prefix);
  }
  outcome.begin_ms = (NowUs() - t0) / 1000.0;
  if (first_frame_bytes == 0) {
    outcome.ttff_ms = outcome.begin_ms;
  }
  for (;;) {
    auto frame = conn.Receive();
    if (!frame.ok()) {
      return outcome;
    }
    if (frame->type == net::FrameType::kStreamChunk) {
      ScopedSpan span(sink, "net.stream_chunk", op);
      auto chunk = net::DecodeStreamChunk(frame->payload, frame->version);
      if (!chunk.ok() || !reassembler.Feed(*chunk).ok()) {
        return outcome;
      }
      ++outcome.chunks;
      outcome.bytes += chunk->payload.size();
      if (outcome.ttff_ms == 0 && reassembler.bytes().size() >= first_frame_bytes) {
        outcome.ttff_ms = (NowUs() - t0) / 1000.0;
      }
      continue;
    }
    if (frame->type != net::FrameType::kStreamEnd) {
      return outcome;
    }
    auto end = net::DecodeStreamEnd(frame->payload, frame->version);
    if (!end.ok()) {
      return outcome;
    }
    cmif::StatusOr<std::vector<net::WireBlock>> blocks = cmif::InternalError("unset");
    {
      ScopedSpan span(sink, "net.stream_finish", op);
      blocks = reassembler.Finish(*end);
    }
    if (!blocks.ok()) {
      return outcome;  // integrity failure: the caller restarts
    }
    outcome.complete_ms = (NowUs() - t0) / 1000.0;
    outcome.blocks = std::move(*blocks);
    outcome.ok = true;
    // Delivery telemetry, one-way (the server answers nothing).
    net::StreamAck ack;
    ack.stream_id = end->stream_id;
    ack.chunks_received = reassembler.chunks_received();
    (void)conn.Send(net::EncodeFrame(net::FrameType::kStreamAck, net::EncodeStreamAck(ack)));
    return outcome;
  }
}

}  // namespace

StreamOutcome FetchStream(FrameConn& conn, const api::PresentRequest& request, SpanSink* sink,
                          std::uint64_t op) {
  StreamOutcome outcome = StreamOnce(conn, request, sink, op);
  if (!outcome.ok) {
    outcome = StreamOnce(conn, request, sink, op);
    outcome.restarts = 1;
  }
  return outcome;
}

}  // namespace perfbench
