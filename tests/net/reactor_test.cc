// The epoll reactor and the reactor-backed server's event-loop behavior:
// request pipelining on one connection (responses in request order even when
// EDF reorders execution), overload shedding with structured responses,
// slow-loris partial-frame drops vs. legitimately idle connections,
// short-write resumption under the net.partial_write fault, graceful
// shutdown that flushes in-flight responses before worker-pool teardown,
// batched requests, and a 256-connection pipelined soak (fixed seed, zero dropped responses).
#include "src/net/reactor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/cmif.h"
#include "src/base/socket.h"
#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/net/scheduler.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace cmif {
namespace net {
namespace {

struct Harness {
  std::unique_ptr<ServeCorpus> corpus;
  std::unique_ptr<ServeLoop> loop;
  std::unique_ptr<NetServer> server;

  static Harness Start(int documents, ServeOptions options = {},
                       NetServerOptions net_options = {}) {
    Harness h;
    auto corpus = api::BuildNewsCorpus(documents);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    h.corpus = std::move(corpus).value();
    options.threads = 2;
    h.loop = std::make_unique<ServeLoop>(*h.corpus, options);
    h.server = std::make_unique<NetServer>(*h.loop, net_options);
    Status started = h.server->Start();
    EXPECT_TRUE(started.ok()) << started;
    return h;
  }
};

PresentRequest HashOnlyRequest(const Harness& h, int document) {
  PresentRequest request;
  request.document = h.corpus->document(document % h.corpus->size()).name;
  request.want_body = false;
  return request;
}

// ---- raw Reactor ---------------------------------------------------------

TEST(ReactorTest, EchoesFramesAndCountsConnections) {
  // A bare reactor with a reverse-echo handler — no server, no scheduler —
  // exercises the accept/read/assemble/write machinery on its own.
  ReactorOptions options;
  std::atomic<int> closes{0};
  Reactor* raw = nullptr;
  Reactor echo(
      options,
      [&raw](std::uint64_t conn_id, Frame frame) {
        std::string reversed(frame.payload.rbegin(), frame.payload.rend());
        (void)raw->SendFrame(conn_id, FrameType::kPong, reversed);
      },
      [&raw](std::uint64_t conn_id) { raw->CloseConnection(conn_id); },
      [](std::uint64_t, const Status&) {},
      [&](std::uint64_t, const Status&) { closes.fetch_add(1); });
  raw = &echo;
  ASSERT_TRUE(echo.Start().ok());
  ASSERT_GT(echo.port(), 0);

  auto socket = ConnectTcp("127.0.0.1", echo.port(), 5000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(WriteFrame(*socket, FrameType::kPing, "abc").ok());
  ASSERT_TRUE(WriteFrame(*socket, FrameType::kPing, "wxyz").ok());
  auto first = ReadFrame(*socket, {});
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->payload, "cba");
  auto second = ReadFrame(*socket, {});
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((*second)->payload, "zyxw");
  socket->Close();
  echo.Stop();
  EXPECT_EQ(echo.stats().accepted, 1u);
  EXPECT_EQ(closes.load(), 1);
}

TEST(ReactorTest, CapsOpenConnections) {
  ReactorOptions options;
  options.max_connections = 1;
  Reactor reactor(
      options, [](std::uint64_t, Frame) {}, [](std::uint64_t) {},
      [](std::uint64_t, const Status&) {}, [](std::uint64_t, const Status&) {});
  ASSERT_TRUE(reactor.Start().ok());
  auto first = ConnectTcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_TRUE(first.ok());
  // Nudge the reactor so the first connection is registered before the
  // second arrives (accept order is otherwise raceable).
  ASSERT_TRUE(WriteFrame(*first, FrameType::kPing, "x").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto second = ConnectTcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_TRUE(second.ok());
  // The over-cap connection gets a kError(kResourceExhausted) then EOF.
  auto frame = ReadFrame(*second, {});
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeWireStatus((*frame)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kResourceExhausted);
  reactor.Stop();
  EXPECT_EQ(reactor.stats().rejected_capacity, 1u);
}

// ---- pipelining ----------------------------------------------------------

TEST(ReactorServerTest, PipelinedRequestsAnswerInOrder) {
  Harness h = Harness::Start(4);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 10000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  constexpr int kPipelined = 16;
  // Fire all requests back-to-back before reading anything; documents cycle
  // so each response body differs.
  std::vector<std::uint64_t> expected_hashes;
  for (int i = 0; i < kPipelined; ++i) {
    PresentRequest request = HashOnlyRequest(h, i);
    ASSERT_TRUE(
        WriteFrame(*socket, FrameType::kRequest, EncodeRequest(request)).ok());
  }
  // Compute expected hashes with a separate client on separate connections.
  {
    NetClientOptions options;
    options.port = h.server->port();
    NetClient client(options);
    for (int i = 0; i < kPipelined; ++i) {
      auto direct = client.Present(HashOnlyRequest(h, i));
      ASSERT_TRUE(direct.ok()) << direct.status();
      expected_hashes.push_back(direct->presentation_hash);
    }
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto frame = ReadFrame(*socket, {});
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status();
    ASSERT_TRUE(frame->has_value()) << "response " << i;
    ASSERT_EQ((*frame)->type, FrameType::kResponse) << "response " << i;
    auto response = DecodeResponse((*frame)->payload, (*frame)->version);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_NE(response->outcome, ServeOutcome::kFailed) << "response " << i;
    // In-order: response i answers request i (hashes cycle with documents).
    EXPECT_EQ(response->presentation_hash, expected_hashes[i]) << "response " << i;
  }
  h.server->Stop();
}

TEST(ReactorServerTest, PipelinedOrderHoldsUnderManyWorkers) {
  // Regression for a response-ordering race: the per-connection ready-prefix
  // pop and the reactor hand-off must be one atomic step, or a worker
  // completing slot N+1 can post its response to the reactor's FIFO mailbox
  // before the (preempted) worker that popped slot N. Uncached compiles plus
  // many workers maximize concurrent adjacent completions.
  NetServerOptions net_options;
  net_options.workers = 4;
  net_options.max_queue_depth = 1024;
  ServeOptions options;
  options.use_cache = false;  // every request is a real compile
  Harness h = Harness::Start(4, options, net_options);
  std::vector<std::uint64_t> hash_by_document;
  {
    NetClientOptions client_options;
    client_options.port = h.server->port();
    NetClient client(client_options);
    for (int d = 0; d < 4; ++d) {
      auto direct = client.Present(HashOnlyRequest(h, d));
      ASSERT_TRUE(direct.ok()) << direct.status();
      hash_by_document.push_back(direct->presentation_hash);
    }
  }
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 30000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  constexpr int kPipelined = 64;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(WriteFrame(*socket, FrameType::kRequest,
                           EncodeRequest(HashOnlyRequest(h, i)))
                    .ok());
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto frame = ReadFrame(*socket, {});
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status();
    ASSERT_TRUE(frame->has_value()) << "response " << i;
    ASSERT_EQ((*frame)->type, FrameType::kResponse) << "response " << i;
    auto response = DecodeResponse((*frame)->payload, (*frame)->version);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_NE(response->outcome, ServeOutcome::kFailed) << "response " << i;
    // Adjacent requests target different documents, so any swap of adjacent
    // responses flips the hash.
    EXPECT_EQ(response->presentation_hash, hash_by_document[i % 4])
        << "response " << i << " answered out of order";
  }
  h.server->Stop();
}

TEST(ReactorServerTest, EdfPipeliningShedsUnderOverloadButAnswersEverything) {
  NetServerOptions net_options;
  net_options.workers = 1;
  net_options.sched_policy = SchedPolicy::kEdf;
  net_options.max_queue_depth = 2;
  ServeOptions options;
  options.use_cache = false;  // every request is a real compile
  Harness h = Harness::Start(2, options, net_options);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 20000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  constexpr int kFlood = 32;
  for (int i = 0; i < kFlood; ++i) {
    PresentRequest request = HashOnlyRequest(h, i);
    request.deadline_ms = 5000;  // tight queue, generous deadline: queue-full sheds
    ASSERT_TRUE(
        WriteFrame(*socket, FrameType::kRequest, EncodeRequest(request)).ok());
  }
  int served = 0;
  int shed = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto frame = ReadFrame(*socket, {});
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status();
    ASSERT_TRUE(frame->has_value()) << "response " << i;
    ASSERT_EQ((*frame)->type, FrameType::kResponse);
    auto response = DecodeResponse((*frame)->payload, (*frame)->version);
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->shed) {
      ++shed;
      EXPECT_EQ(response->outcome, ServeOutcome::kFailed);
      EXPECT_EQ(response->error.code(), StatusCode::kResourceExhausted);
    } else if (response->outcome != ServeOutcome::kFailed) {
      ++served;
    }
  }
  // Every request got a structured answer; with a queue of 2 and a flood of
  // 32 written before any read, overload must have shed some and served
  // others — never dropped any.
  EXPECT_EQ(served + shed, kFlood);
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  EXPECT_EQ(h.server->stats().shed, static_cast<std::uint64_t>(shed));
  h.server->Stop();
}

// ---- batches -------------------------------------------------------------

TEST(ReactorServerTest, BatchedRequestsAnswerPositionally) {
  Harness h = Harness::Start(3);
  NetClientOptions options;
  options.port = h.server->port();
  NetClient client(options);
  std::vector<PresentRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(HashOnlyRequest(h, i));
  }
  batch[4].document = "no-such-document";  // failures stay positional
  auto responses = client.PresentBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), batch.size());
  for (std::size_t i = 0; i < responses->size(); ++i) {
    if (i == 4) {
      EXPECT_EQ((*responses)[i].outcome, ServeOutcome::kFailed);
      EXPECT_EQ((*responses)[i].error.code(), StatusCode::kNotFound);
    } else {
      EXPECT_NE((*responses)[i].outcome, ServeOutcome::kFailed) << i;
    }
  }
  // Positional identity: batch element i matches a solo request for the
  // same document.
  auto solo = client.Present(batch[1]);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ((*responses)[1].presentation_hash, solo->presentation_hash);
  h.server->Stop();
}

// ---- slow loris and partial writes --------------------------------------

TEST(ReactorServerTest, SlowLorisPartialFrameIsDropped) {
  NetServerOptions net_options;
  net_options.partial_frame_timeout_ms = 100;
  Harness h = Harness::Start(1, {}, net_options);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 5000);
  ASSERT_TRUE(socket.ok());
  // Trickle half a frame header and stall: the sweep (every 50ms) must drop
  // the connection once the partial frame is older than the timeout.
  ASSERT_TRUE(socket->WriteAll("CMIF\x04").ok());
  auto dropped = ReadFrame(*socket, {});
  // EOF or reset — never a hang (the read deadline above would fire at 5s).
  if (dropped.ok()) {
    EXPECT_FALSE(dropped->has_value());
  } else {
    EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  }
  h.server->Stop();
}

TEST(ReactorServerTest, BusyPipelinedClientIsNotSlowLorisDropped) {
  // Regression: a pipelined client whose read batches consistently end
  // mid-frame makes continuous progress yet (before the fix) kept its
  // original partial-frame timestamp — the timer only cleared when the
  // assembler buffer emptied — so the sweep dropped an active connection.
  // Every consumed frame must re-stamp the timer.
  NetServerOptions net_options;
  net_options.partial_frame_timeout_ms = 250;
  Harness h = Harness::Start(1, {}, net_options);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 10000);
  ASSERT_TRUE(socket.ok());
  constexpr int kFrames = 8;
  std::string stream;
  std::vector<std::size_t> boundaries;  // cumulative end offset of frame i
  for (int i = 0; i < kFrames; ++i) {
    stream += EncodeFrame(FrameType::kPing, StrFormat("ping-%d", i));
    boundaries.push_back(stream.size());
  }
  // Send chunks that each END halfway into the next frame: every batch
  // completes one ping and leaves a partial tail buffered, for a total span
  // of ~2x the partial-frame timeout. The connection must survive.
  std::size_t sent = 0;
  for (int i = 0; i < kFrames; ++i) {
    const std::size_t end = (i + 1 < kFrames)
                                ? boundaries[i] + (boundaries[i + 1] - boundaries[i]) / 2
                                : stream.size();
    ASSERT_TRUE(
        socket->WriteAll(std::string_view(stream).substr(sent, end - sent)).ok())
        << "chunk " << i;
    sent = end;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  for (int i = 0; i < kFrames; ++i) {
    auto pong = ReadFrame(*socket, {});
    ASSERT_TRUE(pong.ok()) << "pong " << i << ": " << pong.status();
    ASSERT_TRUE(pong->has_value()) << "pong " << i;
    EXPECT_EQ((*pong)->type, FrameType::kPong);
    EXPECT_EQ((*pong)->payload, StrFormat("ping-%d", i));
  }
  EXPECT_EQ(h.server->stats().protocol_errors, 0u);
  h.server->Stop();
}

TEST(ReactorServerTest, IdleConnectionsAtFrameBoundarySurvive) {
  NetServerOptions net_options;
  net_options.partial_frame_timeout_ms = 100;
  Harness h = Harness::Start(1, {}, net_options);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 5000);
  ASSERT_TRUE(socket.ok());
  // Idle well past the partial-frame timeout — but at a frame boundary,
  // which is legitimate (a player between fetches). The connection lives.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(WriteFrame(*socket, FrameType::kPing, "still-here").ok());
  auto pong = ReadFrame(*socket, {});
  ASSERT_TRUE(pong.ok()) << pong.status();
  ASSERT_TRUE(pong->has_value());
  EXPECT_EQ((*pong)->type, FrameType::kPong);
  EXPECT_EQ((*pong)->payload, "still-here");
  h.server->Stop();
}

TEST(ReactorServerTest, PartialWriteFaultStillDeliversWholeResponses) {
  Harness h = Harness::Start(2);
  auto plan = fault::FaultPlan::Parse("net.partial_write:transient=1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault::ScopedPlan chaos(*plan);
  // Every server flush now moves one byte per attempt; responses must still
  // arrive intact (short-write resumption), just across many epoll rounds.
  NetClientOptions options;
  options.port = h.server->port();
  NetClient client(options);
  for (int i = 0; i < 4; ++i) {
    auto response = client.Present(HashOnlyRequest(h, i));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_NE(response->outcome, ServeOutcome::kFailed);
  }
  h.server->Stop();
}

// ---- telemetry -----------------------------------------------------------

TEST(ReactorServerTest, RxBytesCountEachInboundByteOnce) {
#ifdef CMIF_OBS_DISABLED
  GTEST_SKIP() << "probes compiled out (-DCMIF_OBS=OFF)";
#endif
  // Regression: the reactor's raw-read accounting double-counted net.rx_bytes
  // (the frame assembler already counts every consumed byte via CountRx).
  Harness h = Harness::Start(1);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 5000);
  ASSERT_TRUE(socket.ok());
  obs::ScopedEnable enable;
  const std::string ping = EncodeFrame(FrameType::kPing, "count-me-once");
  const std::int64_t before = obs::GetCounter("net.rx_bytes").value();
  ASSERT_TRUE(socket->WriteAll(ping).ok());
  auto pong = ReadFrame(*socket, {});
  ASSERT_TRUE(pong.ok() && pong->has_value());
  ASSERT_EQ((*pong)->type, FrameType::kPong);
  // The server counted the inbound ping once; this test's ReadFrame counted
  // the inbound pong once. The pong mirrors the ping's payload, so both
  // frames encode to the same size: exactly 2x, not 3x.
  EXPECT_EQ(obs::GetCounter("net.rx_bytes").value() - before,
            static_cast<std::int64_t>(2 * ping.size()));
  h.server->Stop();
}

// ---- graceful shutdown ---------------------------------------------------

TEST(ReactorServerTest, StopFlushesInFlightResponses) {
  Harness h = Harness::Start(2);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 10000);
  ASSERT_TRUE(socket.ok());
  constexpr int kInFlight = 8;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(WriteFrame(*socket, FrameType::kRequest,
                           EncodeRequest(HashOnlyRequest(h, i)))
                    .ok());
  }
  // Wait until the server has admitted (and answered) every request, then
  // Stop with the responses still unread in server/kernel buffers: graceful
  // shutdown must flush them before tearing the pool down.
  for (int spin = 0; spin < 500; ++spin) {
    if (h.server->stats().requests >= kInFlight) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(h.server->stats().requests, static_cast<std::uint64_t>(kInFlight));
  h.server->Stop();
  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto frame = ReadFrame(*socket, {});
    if (!frame.ok() || !frame->has_value()) {
      break;
    }
    EXPECT_EQ((*frame)->type, FrameType::kResponse);
    ++answered;
  }
  EXPECT_EQ(answered, kInFlight);
  // ...and after the last response the connection closes cleanly.
  auto eof = ReadFrame(*socket, {});
  if (eof.ok()) {
    EXPECT_FALSE(eof->has_value());
  }
}

// ---- soak ----------------------------------------------------------------

TEST(ReactorSoakTest, Pipelined256ConnectionsZeroDrops) {
  // The CI soak: 256 concurrent connections, ~1k pipelined requests total,
  // fixed request pattern, zero dropped responses, clean shutdown. Sized to
  // finish quickly with a warm cache; the point is event-loop correctness
  // under fan-in, not compile throughput.
  constexpr int kConnections = 256;
  constexpr int kPerConnection = 4;  // 1024 requests total
  ServeOptions options;
  options.seed = 7;  // fixed seed: deterministic corpus + cache behavior
  NetServerOptions net_options;
  net_options.workers = 4;
  net_options.max_connections = 2 * kConnections;
  net_options.max_queue_depth = kConnections * kPerConnection + 1;  // no shedding
  Harness h = Harness::Start(4, options, net_options);

  std::vector<Socket> sockets;
  sockets.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    auto socket = ConnectTcp("127.0.0.1", h.server->port(), 60000);
    ASSERT_TRUE(socket.ok()) << "conn " << c << ": " << socket.status();
    sockets.push_back(std::move(socket).value());
  }
  // Phase 1: every connection pipelines its whole request burst.
  for (int c = 0; c < kConnections; ++c) {
    for (int i = 0; i < kPerConnection; ++i) {
      PresentRequest request = HashOnlyRequest(h, c + i);
      ASSERT_TRUE(
          WriteFrame(sockets[c], FrameType::kRequest, EncodeRequest(request)).ok())
          << "conn " << c << " req " << i;
    }
  }
  // Phase 2: read every response; responses arrive in request order per
  // connection and none may be missing.
  std::uint64_t answered = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (int i = 0; i < kPerConnection; ++i) {
      auto frame = ReadFrame(sockets[c], {});
      ASSERT_TRUE(frame.ok()) << "conn " << c << " resp " << i << ": " << frame.status();
      ASSERT_TRUE(frame->has_value()) << "conn " << c << " resp " << i;
      ASSERT_EQ((*frame)->type, FrameType::kResponse);
      auto response = DecodeResponse((*frame)->payload, (*frame)->version);
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_NE(response->outcome, ServeOutcome::kFailed)
          << "conn " << c << " resp " << i << ": " << response->error.ToString();
      ++answered;
    }
  }
  EXPECT_EQ(answered, static_cast<std::uint64_t>(kConnections) * kPerConnection);
  NetServer::Stats stats = h.server->stats();
  EXPECT_EQ(stats.requests, answered);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  h.server->Stop();
  EXPECT_FALSE(h.server->running());
}

}  // namespace
}  // namespace net
}  // namespace cmif
