// Server/client integration over a real loopback socket: request round
// trips, protocol-error handling, backpressure, concurrent clients (the
// TSan target), clean shutdown with blocked connections, and a chaos replay
// where every request must still be answered. Uses ephemeral ports
// (port = 0) throughout so suites can run in parallel.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/api/cmif.h"
#include "src/base/crc32.h"
#include "src/base/socket.h"
#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

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

  NetClient Client() const {
    NetClientOptions options;
    options.port = server->port();
    return NetClient(options);
  }
};

TEST(LoopbackTest, StartStopWithoutTraffic) {
  Harness h = Harness::Start(1);
  EXPECT_GT(h.server->port(), 0);
  EXPECT_TRUE(h.server->running());
  h.server->Stop();
  EXPECT_FALSE(h.server->running());
  // Stop is idempotent.
  h.server->Stop();
}

TEST(LoopbackTest, PingRoundTrip) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());  // same connection
  EXPECT_EQ(client.reconnects(), 0u);
  h.server->Stop();
}

TEST(LoopbackTest, PresentMatchesInProcessCompile) {
  Harness h = Harness::Start(2);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  request.profile = "workstation";
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);
  EXPECT_FALSE(response->presentation.empty());
  EXPECT_EQ(Fnv1a64(response->presentation), response->presentation_hash);

  // Byte identity: the wire body hashes to what an in-process compile of
  // the same document under the same profile serializes to.
  const ServeDocument& doc = h.corpus->document(0);
  PipelineOptions options;
  options.profile = WorkstationProfile();
  auto direct = h.corpus->store().WithRead([&](const DescriptorStore& store) {
    return h.corpus->blocks().WithRead([&](const BlockStore& blocks) {
      return api::Compile(doc.document, store, blocks, options);
    });
  });
  ASSERT_TRUE(direct.ok()) << direct.status();
  CompiledPresentation compiled;
  compiled.map = direct->presentation_map;
  compiled.filter = direct->filter;
  compiled.schedule = direct->schedule;
  EXPECT_EQ(api::SerializePresentation(compiled), response->presentation);

  // Second fetch is served from the mapping cache, still byte-identical.
  auto warm = client.Present(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->presentation, response->presentation);
  h.server->Stop();
}

TEST(LoopbackTest, UnknownDocumentAndProfileFailStructurally) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = "no-such-document";
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kFailed);
  EXPECT_EQ(response->error.code(), StatusCode::kNotFound);

  request.document = h.corpus->document(0).name;
  request.profile = "no-such-profile";
  response = client.Present(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, ServeOutcome::kFailed);
  EXPECT_EQ(response->error.code(), StatusCode::kNotFound);

  // The connection survived both application-level failures.
  request.profile = "";
  response = client.Present(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);
  EXPECT_EQ(client.reconnects(), 0u);
  h.server->Stop();
}

TEST(LoopbackTest, HashOnlyAndChannelSelection) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  auto full = client.Present(request);
  ASSERT_TRUE(full.ok()) << full.status();

  // want_body = false: no body, same hash as the full fetch.
  request.want_body = false;
  auto probe = client.Present(request);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->presentation.empty());
  EXPECT_EQ(probe->presentation_hash, full->presentation_hash);

  // Channel selection: a restricted body, hashed over the restriction.
  request.want_body = true;
  request.channels = {"audio"};
  auto selected = client.Present(request);
  ASSERT_TRUE(selected.ok());
  EXPECT_LT(selected->presentation.size(), full->presentation.size());
  EXPECT_EQ(Fnv1a64(selected->presentation), selected->presentation_hash);
  EXPECT_NE(selected->presentation.find("\"audio\""), std::string::npos);
  EXPECT_EQ(selected->presentation.find("\"video\""), std::string::npos);
  h.server->Stop();
}

TEST(LoopbackTest, MalformedBytesGetErrorFrameThenDrop) {
  Harness h = Harness::Start(1);
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 5000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  // Garbage that is not a frame: the server answers kError and drops.
  ASSERT_TRUE(socket->WriteAll("XXXXGARBAGE-NOT-A-FRAME").ok());
  auto frame = ReadFrame(*socket, {});
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeWireStatus((*frame)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kDataLoss);
  // ...then the drop: either a clean EOF or a reset (the server closed with
  // our trailing garbage unread, which TCP reports as RST) — never another
  // frame.
  auto dropped = ReadFrame(*socket, {});
  if (dropped.ok()) {
    EXPECT_FALSE(dropped->has_value());
  } else {
    EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable) << dropped.status();
  }
  EXPECT_EQ(h.server->stats().protocol_errors, 1u);
  h.server->Stop();
}

TEST(LoopbackTest, OldWireVersionPeerIsRefusedCleanly) {
  // A well-formed frame from an older peer — a v3 kRequest whose CRC is
  // valid — is refused at the header: exactly one kError frame, itself at
  // kWireVersion, naming the version, then the drop. Other connections keep
  // being served.
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  ASSERT_TRUE(client.Present(request).ok());
  const std::uint64_t errors_before = h.server->stats().protocol_errors;

  // The v3 request layout is the current one without its trailing
  // want_blocks byte; the CRC is recomputed over the rewritten header.
  std::string payload = EncodeRequest(request);
  payload.pop_back();
  std::string frame = EncodeFrame(FrameType::kRequest, payload);
  frame.resize(frame.size() - 4);
  frame[4] = 3;
  const std::uint32_t crc = Crc32(std::string_view(frame).substr(4));
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  auto socket = ConnectTcp("127.0.0.1", h.server->port(), 5000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->WriteAll(frame).ok());
  auto answer = ReadFrame(*socket, {});
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_TRUE(answer->has_value());
  EXPECT_EQ((*answer)->type, FrameType::kError);
  EXPECT_EQ((*answer)->version, kWireVersion);
  Status carried;
  ASSERT_TRUE(DecodeWireStatus((*answer)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kDataLoss);
  EXPECT_NE(carried.message().find("version 3"), std::string::npos) << carried;
  auto dropped = ReadFrame(*socket, {});
  if (dropped.ok()) {
    EXPECT_FALSE(dropped->has_value()) << "a second frame followed the kError";
  } else {
    EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable) << dropped.status();
  }
  EXPECT_EQ(h.server->stats().protocol_errors, errors_before + 1);

  auto served = client.Present(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->outcome, ServeOutcome::kHealthy);
  EXPECT_EQ(client.reconnects(), 0u);
  h.server->Stop();
}

TEST(LoopbackTest, CorruptedFramesFailStructurallyThenRecover) {
  Harness h = Harness::Start(1);
  NetClientOptions client_options;
  client_options.port = h.server->port();
  client_options.retry.max_attempts = 3;
  NetClient client(client_options);
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  {
    // Corrupt every frame in transit: the far side's CRC rejects each one,
    // the client reconnects and resends until its attempts run out, and the
    // failure is a structured kUnavailable — never a hang or a wrong answer.
    auto plan = fault::FaultPlan::Parse("net.frame_corrupt:corrupt=1");
    ASSERT_TRUE(plan.ok()) << plan.status();
    fault::ScopedPlan chaos(*plan);
    auto response = client.Present(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
    EXPECT_GE(client.reconnects(), 1u);
  }
  // Chaos over: the same client reconnects and serves cleanly.
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);
  h.server->Stop();
}

TEST(LoopbackTest, ConcurrentClientsSeeConsistentBytes) {
  Harness h = Harness::Start(4);
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 16;
  std::vector<std::uint64_t> hashes(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client = h.Client();
      std::uint64_t combined = 0;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        PresentRequest request;
        request.document = h.corpus->document(i % h.corpus->size()).name;
        request.profile = i % 2 == 0 ? "workstation" : "personal";
        auto response = client.Present(request);
        if (!response.ok() || response->outcome == ServeOutcome::kFailed) {
          ADD_FAILURE() << "client " << c << " request " << i << " failed";
          return;
        }
        if (Fnv1a64(response->presentation) != response->presentation_hash) {
          ADD_FAILURE() << "hash mismatch at client " << c << " request " << i;
          return;
        }
        combined = Fnv1a64Combine(combined, response->presentation_hash);
      }
      hashes[c] = combined;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Same request sequence => same bytes => same combined hash on every client.
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(hashes[c], hashes[0]) << "client " << c;
  }
  NetServer::Stats stats = h.server->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  h.server->Stop();
}

TEST(LoopbackTest, StopUnblocksIdleConnections) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  ASSERT_TRUE(client.Ping().ok());
  // The server worker is now blocked reading this connection; Stop() must
  // shut it down rather than hang on join.
  h.server->Stop();
  EXPECT_FALSE(h.server->running());
  // The dropped connection surfaces as a transport error on the next use.
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  EXPECT_FALSE(client.Present(request).ok());
}

TEST(LoopbackTest, ChaosReplayAnswersEveryRequest) {
  // Level-3 chaos across serve and net fault sites. Transport failures are
  // retried by the client, compile failures ride the serve recovery ladder;
  // every request must come back answered (degraded allowed, hangs not).
  ServeOptions options;
  options.enable_degraded = true;
  Harness h = Harness::Start(2, options);
  fault::ScopedPlan chaos(fault::StandardChaosPlan(3));
  NetClientOptions client_options;
  client_options.port = h.server->port();
  client_options.retry.max_attempts = 8;
  NetClient client(client_options);
  constexpr int kRequests = 48;
  int answered = 0;
  for (int i = 0; i < kRequests; ++i) {
    PresentRequest request;
    request.document = h.corpus->document(i % h.corpus->size()).name;
    request.profile = i % 2 == 0 ? "workstation" : "personal";
    auto response = client.Present(request);
    ASSERT_TRUE(response.ok()) << "request " << i << ": " << response.status();
    if (response->outcome != ServeOutcome::kFailed) {
      ++answered;
      if (!response->presentation.empty()) {
        EXPECT_EQ(Fnv1a64(response->presentation), response->presentation_hash) << i;
      }
    }
  }
  EXPECT_EQ(answered, kRequests);
  h.server->Stop();
}

TEST(LoopbackTest, ServesAfterClientVanishes) {
  Harness h = Harness::Start(1);
  {
    NetClient client = h.Client();
    ASSERT_TRUE(client.Ping().ok());
  }  // destructor closes the connection mid-session
  NetClient second = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  auto response = second.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);
  h.server->Stop();
}

TEST(LoopbackTest, TracedRequestStitchesClientAndServerSpans) {
#ifdef CMIF_OBS_DISABLED
  GTEST_SKIP() << "probes compiled out (-DCMIF_OBS=OFF)";
#endif

  // The tentpole contract: one trace id minted at the client stitches the
  // client span and the server's spans into a single timeline. The server
  // ships its harvested spans back in the response; every one of them —
  // including the request envelope span — carries the client's trace id.
  obs::ResetAll();
  obs::ScopedEnable enable;
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  request.trace = obs::NewTrace(1.0);
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);

  ASSERT_FALSE(response->server_spans.empty());
  bool saw_envelope = false;
  for (const WireSpan& span : response->server_spans) {
    EXPECT_EQ(span.trace_id, request.trace.trace_id) << span.name;
    EXPECT_GE(span.duration_us, 0.0) << span.name;
    saw_envelope |= span.name == "net-request";
  }
  EXPECT_TRUE(saw_envelope) << "server envelope span missing from the response";

  // The client half of the same trace: its request span carries the same id,
  // and the server's envelope span hangs off it across the wire.
  auto client_spans = obs::TakeTraceSpans(request.trace.trace_id);
  ASSERT_FALSE(client_spans.empty());
  std::uint64_t client_span_id = 0;
  for (const auto& span : client_spans) {
    EXPECT_EQ(span.trace_id, request.trace.trace_id);
    if (span.name == "net-client-request") {
      client_span_id = span.id;
    }
  }
  ASSERT_NE(client_span_id, 0u);
  for (const WireSpan& span : response->server_spans) {
    if (span.name == "net-request") {
      EXPECT_EQ(span.parent_id, client_span_id);
    }
  }

  // The sampled trace shows up as an exemplar in the live stats.
  auto stats = client.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->traces_sampled, 1u);
  bool exemplar_found = false;
  for (std::uint64_t id : stats->exemplar_trace_ids) {
    exemplar_found |= id == request.trace.trace_id;
  }
  EXPECT_TRUE(exemplar_found);
  h.server->Stop();
  obs::ResetAll();
}

TEST(LoopbackTest, UntracedRequestsShipNoSpans) {
  obs::ResetAll();
  obs::ScopedEnable enable;
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->server_spans.empty());
  h.server->Stop();
  obs::ResetAll();
}

TEST(LoopbackTest, StatsOverTheWire) {
  // Live RED metrics without any file export: a few requests (one of them a
  // failure), then a kStatsRequest round trip returns a snapshot whose
  // ladders and duration distribution reflect what just happened.
  Harness h = Harness::Start(2);
  NetClient client = h.Client();
  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    PresentRequest request;
    request.document = h.corpus->document(i % h.corpus->size()).name;
    auto response = client.Present(request);
    ASSERT_TRUE(response.ok()) << response.status();
  }
  PresentRequest bad;
  bad.document = "no-such-document";
  ASSERT_TRUE(client.Present(bad).ok());

  auto stats = client.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->uptime_us, 0u);
  EXPECT_GE(stats->connections, 1u);
  EXPECT_EQ(stats->requests, static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_EQ(stats->failed, 1u);
  EXPECT_EQ(stats->request_count, static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_GE(stats->request_ms_max, stats->request_ms_min);
  EXPECT_GE(stats->request_ms_p99, stats->request_ms_p50);
  EXPECT_GE(stats->cache_hits + stats->cache_misses, 1u);
  EXPECT_EQ(stats->sample_rate, 0.0);
  // Same connection serves presentation traffic after the stats frame.
  PresentRequest again;
  again.document = h.corpus->document(0).name;
  EXPECT_TRUE(client.Present(again).ok());
  EXPECT_EQ(client.reconnects(), 0u);

  // The JSON rendering is the tool's output; spot-check the headline fields.
  std::string json = StatsSnapshotJson(*stats);
  EXPECT_NE(json.find("\"requests\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("request_rate_rps"), std::string::npos) << json;
  h.server->Stop();
}

// A hand-rolled misbehaving server: one thread, scripted per-connection
// behavior, for reconnect-during-response edge cases a well-behaved
// NetServer never produces.
PresentResponse CannedResponse() {
  PresentResponse response;
  response.outcome = ServeOutcome::kHealthy;
  response.presentation = "(presentation canned)";
  response.presentation_hash = Fnv1a64(response.presentation);
  return response;
}

TEST(LoopbackTest, ReconnectsWhenServerDiesMidResponse) {
  ListenSocket listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 4).ok());
  std::thread server([&listener] {
    // Connection 1: read the request, write half a valid response frame,
    // then slam the connection — the client sees EOF mid-frame.
    auto first = listener.Accept();
    if (first.ok()) {
      auto request = ReadFrame(*first, {});
      EXPECT_TRUE(request.ok()) << request.status();
      std::string frame = EncodeFrame(FrameType::kResponse, EncodeResponse(CannedResponse()));
      EXPECT_TRUE(first->WriteAll(std::string_view(frame).substr(0, frame.size() / 2)).ok());
      first->Close();
    }
    // Connection 2: behave.
    auto second = listener.Accept();
    if (second.ok()) {
      auto request = ReadFrame(*second, {});
      EXPECT_TRUE(request.ok()) << request.status();
      EXPECT_TRUE(WriteFrame(*second, FrameType::kResponse,
                             EncodeResponse(CannedResponse()))
                      .ok());
    }
  });

  NetClientOptions options;
  options.port = listener.port();
  options.retry.max_attempts = 3;
  NetClient client(options);
  PresentRequest request;
  request.document = "any";
  auto response = client.Present(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeOutcome::kHealthy);
  EXPECT_EQ(response->presentation, "(presentation canned)");
  EXPECT_GE(client.reconnects(), 1u) << "the half-written response must force a reconnect";
  server.join();
  listener.Close();
}

TEST(LoopbackTest, WrongFrameTypeIsStructuralNotRetried) {
  // A *well-formed* frame of the wrong type means protocol version skew, not
  // transport loss: the client must fail structurally (kInternal), drop the
  // connection, and — unlike the truncated-response case — never burn retry
  // attempts resending a request the server demonstrably received.
  ListenSocket listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 4).ok());
  std::thread server([&listener] {
    auto conn = listener.Accept();
    if (conn.ok()) {
      auto request = ReadFrame(*conn, {});
      EXPECT_TRUE(request.ok()) << request.status();
      EXPECT_TRUE(WriteFrame(*conn, FrameType::kPong, "").ok());
    }
  });

  NetClientOptions options;
  options.port = listener.port();
  options.retry.max_attempts = 3;
  NetClient client(options);
  PresentRequest request;
  request.document = "any";
  auto response = client.Present(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInternal);
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_FALSE(client.connected()) << "a desynchronized stream must not be reused";
  server.join();
  listener.Close();
}

TEST(LoopbackTest, ReconnectBudgetExhaustedIsStructuredFailure) {
  // Every connection dies mid-response: the client burns its attempts and
  // reports kUnavailable instead of hanging or fabricating a response.
  ListenSocket listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, 4).ok());
  std::thread server([&listener] {
    for (int i = 0; i < 2; ++i) {
      auto conn = listener.Accept();
      if (!conn.ok()) {
        return;
      }
      auto request = ReadFrame(*conn, {});
      EXPECT_TRUE(request.ok()) << request.status();
      std::string frame = EncodeFrame(FrameType::kResponse, EncodeResponse(CannedResponse()));
      EXPECT_TRUE(conn->WriteAll(std::string_view(frame).substr(0, frame.size() / 3)).ok());
      conn->Close();
    }
  });

  NetClientOptions options;
  options.port = listener.port();
  options.retry.max_attempts = 2;
  NetClient client(options);
  PresentRequest request;
  request.document = "any";
  auto response = client.Present(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(client.reconnects(), 1u);
  server.join();
  listener.Close();
}

}  // namespace
}  // namespace net
}  // namespace cmif
