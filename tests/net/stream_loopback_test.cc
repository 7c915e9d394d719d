// Streamed delivery over a real loopback socket: the chunked path must be
// byte-identical to blob delivery, survive chunk-level chaos by resuming at
// the acked boundary, restart (not resume) on end-to-end integrity
// failures, retry a stream request corrupted in transit as a stream, and
// account for all of it in the server's live stats. Ephemeral ports
// throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/api/cmif.h"
#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/pipeline/pipeline.h"

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

  NetClient Client(int max_attempts = 3) const {
    NetClientOptions options;
    options.port = server->port();
    options.retry.max_attempts = max_attempts;
    return NetClient(options);
  }
};

// ~3 MB of news blocks at this chunk size = a dozen chunks per stream:
// enough to exercise mid-stream cuts and resume without making every
// request a ten-second, ten-thousand-frame affair.
constexpr std::uint64_t kTestChunkBytes = 256u << 10;

void ExpectSameDelivery(const StreamResult& streamed, const PresentResponse& blob) {
  EXPECT_EQ(streamed.response.presentation, blob.presentation);
  EXPECT_EQ(streamed.response.presentation_hash, blob.presentation_hash);
  ASSERT_EQ(streamed.blocks.size(), blob.blocks.size());
  for (std::size_t i = 0; i < blob.blocks.size(); ++i) {
    EXPECT_EQ(streamed.blocks[i].descriptor_id, blob.blocks[i].descriptor_id) << i;
    EXPECT_EQ(streamed.blocks[i].payload, blob.blocks[i].payload) << i;
  }
}

// The blocks an in-process compile and BuildStreamPlan of corpus slot
// `slot` carve, against the stores as they are now: what both deliveries of
// that document must carry, whatever the server memoized.
std::vector<WireBlock> InProcessCarve(const ServeCorpus& corpus, std::size_t slot,
                                      const SystemProfile& profile,
                                      const std::vector<std::string>& channels = {}) {
  auto plan = corpus.store().WithRead([&](const DescriptorStore& store) {
    return corpus.blocks().WithRead([&](const BlockStore& blocks) -> StatusOr<StreamPlan> {
      PipelineOptions options;
      options.profile = profile;
      CMIF_ASSIGN_OR_RETURN(CompileReport report,
                            api::Compile(corpus.document(slot).document, store, blocks, options));
      CompiledPresentation compiled;
      compiled.map = std::move(report.presentation_map);
      compiled.filter = std::move(report.filter);
      compiled.schedule = std::move(report.schedule);
      return BuildStreamPlan(compiled, store, blocks, profile, channels);
    });
  });
  EXPECT_TRUE(plan.ok()) << plan.status();
  std::vector<WireBlock> carved;
  if (plan.ok()) {
    for (const PrefetchBlock& block : plan->blocks) {
      carved.push_back({block.descriptor_id,
                        plan->bytes.substr(static_cast<std::size_t>(block.offset),
                                           static_cast<std::size_t>(block.bytes))});
    }
  }
  return carved;
}

void ExpectSameBlocks(const std::vector<WireBlock>& got, const std::vector<WireBlock>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].descriptor_id, want[i].descriptor_id) << label << " block " << i;
    EXPECT_TRUE(got[i].payload == want[i].payload) << label << " block " << i;
  }
}

// Streams and blob-fetches `request`; both must deliver exactly `want`.
void ExpectBothDeliveries(NetClient& client, PresentRequest request,
                          const std::vector<WireBlock>& want, const std::string& label) {
  auto streamed = client.PresentStream(request, kTestChunkBytes);
  ASSERT_TRUE(streamed.ok()) << label << ": " << streamed.status();
  ASSERT_TRUE(streamed->streamed) << label;
  ExpectSameBlocks(streamed->blocks, want, label + " streamed");
  request.want_blocks = true;
  auto blob = client.Present(request);
  ASSERT_TRUE(blob.ok()) << label << ": " << blob.status();
  ExpectSameBlocks(blob->blocks, want, label + " blob");
}

TEST(StreamLoopbackTest, StreamedDeliveryMatchesBlobByteForByte) {
  Harness h = Harness::Start(2);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  request.profile = "workstation";

  // The reference: v4 blob delivery, every block inline in the response.
  PresentRequest blob_request = request;
  blob_request.want_blocks = true;
  auto blob = client.Present(blob_request);
  ASSERT_TRUE(blob.ok()) << blob.status();
  ASSERT_FALSE(blob->blocks.empty()) << "news documents must have block content";

  // The streamed path, chunked so the payload spans several frames.
  auto streamed = client.PresentStream(request, kTestChunkBytes);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_TRUE(streamed->streamed);
  EXPECT_GT(streamed->chunks_received, 0u);
  EXPECT_EQ(streamed->resumes, 0u);
  EXPECT_EQ(streamed->restarts, 0u);
  ExpectSameDelivery(*streamed, *blob);

  // The stream carried exactly the blocks' bytes, no more.
  std::uint64_t block_bytes = 0;
  for (const WireBlock& block : streamed->blocks) {
    block_bytes += block.payload.size();
  }
  EXPECT_EQ(streamed->bytes_streamed, block_bytes);
  EXPECT_EQ(streamed->chunks_received, StreamChunkCount(block_bytes, kTestChunkBytes));
  h.server->Stop();
}

TEST(StreamLoopbackTest, ChunkDropsResumeAtTheAckedBoundary) {
  Harness h = Harness::Start(2);
  NetClient client = h.Client(/*max_attempts=*/32);
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  PresentRequest blob_request = request;
  blob_request.want_blocks = true;
  auto blob = client.Present(blob_request);
  ASSERT_TRUE(blob.ok()) << blob.status();

  // Cut the stream mid-flight with probability 0.25 per chunk: the client
  // must reconnect, resume at its contiguous chunk boundary, and still end
  // byte-identical — under every cut pattern the seeded plan produces. (At
  // ~12 chunks a stream and ~3 chunks of expected progress per attempt,
  // the 32-attempt budget leaves an order of magnitude of headroom.)
  auto plan = fault::FaultPlan::Parse("seed=7;net.chunk.drop:transient=0.25");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault::ScopedPlan chaos(*plan);
  std::uint64_t resumes = 0;
  for (int i = 0; i < 8; ++i) {
    auto streamed = client.PresentStream(request, kTestChunkBytes);
    ASSERT_TRUE(streamed.ok()) << "attempt " << i << ": " << streamed.status();
    EXPECT_TRUE(streamed->streamed) << i;
    EXPECT_EQ(streamed->restarts, 0u) << "drops must resume, not restart";
    ExpectSameDelivery(*streamed, *blob);
    resumes += streamed->resumes;
  }
  EXPECT_GT(resumes, 0u) << "the fault plan never cut a stream mid-flight";
  auto stats = client.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->stream_resumes, resumes);
  h.server->Stop();
}

TEST(StreamLoopbackTest, CorruptChunksRestartAndNeverDeliverWrongBytes) {
  Harness h = Harness::Start(2);
  NetClient client = h.Client(/*max_attempts=*/16);
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  PresentRequest blob_request = request;
  blob_request.want_blocks = true;
  auto blob = client.Present(blob_request);
  ASSERT_TRUE(blob.ok()) << blob.status();

  // Corrupt chunk payloads *before* framing: every frame CRC passes, so
  // only the end-to-end stream hash can catch it. A corrupt stream must be
  // restarted from chunk 0 (resuming would replay the damage) and a
  // successful result must still be byte-identical.
  auto plan = fault::FaultPlan::Parse("seed=3;net.chunk.corrupt:corrupt=0.05");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault::ScopedPlan chaos(*plan);
  std::uint64_t restarts = 0;
  for (int i = 0; i < 8; ++i) {
    auto streamed = client.PresentStream(request, kTestChunkBytes);
    ASSERT_TRUE(streamed.ok()) << "attempt " << i << ": " << streamed.status();
    EXPECT_EQ(streamed->resumes, 0u) << "integrity failures must not resume";
    ExpectSameDelivery(*streamed, *blob);
    restarts += streamed->restarts;
  }
  EXPECT_GT(restarts, 0u) << "the fault plan never corrupted a chunk";
  h.server->Stop();
}

#ifndef CMIF_FAULT_DISABLED
TEST(StreamLoopbackTest, CorruptedStreamRequestsRetryAsStreams) {
  Harness h = Harness::Start(1);
  NetClientOptions options;
  options.port = h.server->port();
  options.retry.max_attempts = 32;
  // A length prefix corrupted upward leaves its reader waiting for bytes
  // that never come; only the io timeout ends that wait, so keep it short.
  options.io_timeout_ms = 1000;
  NetClient client(options);
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  PresentRequest blob_request = request;
  blob_request.want_blocks = true;
  auto blob = client.Present(blob_request);
  ASSERT_TRUE(blob.ok()) << blob.status();
  const std::uint64_t errors_before = h.server->stats().protocol_errors;

  // Frames are corrupted in transit both ways. A corrupted stream request
  // (or ack) fails the server's CRC check, and the server answers kError
  // (kDataLoss) before dropping the connection: the client must reconnect
  // and ask for the stream again — never settle for a blob.
  auto plan = fault::FaultPlan::Parse("seed=5;net.frame_corrupt:corrupt=0.1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  {
    fault::ScopedPlan chaos(*plan);
    for (int i = 0; i < 8; ++i) {
      auto streamed = client.PresentStream(request, kTestChunkBytes);
      ASSERT_TRUE(streamed.ok()) << "call " << i << ": " << streamed.status();
      EXPECT_TRUE(streamed->streamed) << "call " << i << " came back as a blob";
      ExpectSameDelivery(*streamed, *blob);
    }
  }
  EXPECT_GT(h.server->stats().protocol_errors, errors_before)
      << "the fault plan never corrupted a frame the server read";
  h.server->Stop();
}
#endif  // CMIF_FAULT_DISABLED

TEST(StreamLoopbackTest, Level3ChaosNeverDeliversWrongBytes) {
  // The full chaos plan (serve + net + chunk sites at level 3). Under this
  // much fault pressure a stream can exhaust its retry budget — a corrupted
  // kStreamBegin even resets the resume boundary — so the invariant is not
  // "always succeeds" but the one that matters: most requests come back,
  // every failure is a structured transport error, and a delivered healthy
  // stream is byte-identical to the unfaulted blob. Wrong bytes, hangs, and
  // crashes are the bugs this test exists to catch.
  ServeOptions options;
  options.enable_degraded = true;
  Harness h = Harness::Start(2, options);
  NetClient warm = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  PresentRequest blob_request = request;
  blob_request.want_blocks = true;
  auto blob = warm.Present(blob_request);
  ASSERT_TRUE(blob.ok()) << blob.status();

  fault::ScopedPlan chaos(fault::StandardChaosPlan(3));
  NetClient client = h.Client(/*max_attempts=*/32);
  constexpr int kRequests = 10;
  int delivered = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto streamed = client.PresentStream(request, kTestChunkBytes);
    if (!streamed.ok()) {
      EXPECT_EQ(streamed.status().code(), StatusCode::kUnavailable)
          << "request " << i << ": " << streamed.status();
      continue;
    }
    ++delivered;
    if (streamed->streamed && streamed->response.outcome == ServeOutcome::kHealthy) {
      ExpectSameDelivery(*streamed, *blob);
    }
  }
  EXPECT_GE(delivered, kRequests / 2) << "chaos should degrade streaming, not disable it";
  h.server->Stop();
}

TEST(StreamLoopbackTest, StreamingCountersTravelInV4StatsOnly) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  auto streamed = client.PresentStream(request, kTestChunkBytes);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_TRUE(streamed->streamed);

  auto stats = client.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->streams, 1u);
  EXPECT_EQ(stats->stream_chunks, streamed->chunks_received);
  EXPECT_EQ(stats->stream_bytes, streamed->bytes_streamed);
  EXPECT_GE(stats->stream_full_bytes, stats->stream_bytes);
  EXPECT_EQ(stats->stream_resumes, 0u);

  // The JSON rendering carries the streaming block for the stats command.
  std::string json = StatsSnapshotJson(*stats);
  EXPECT_NE(json.find("\"streaming\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"streams\": 1"), std::string::npos) << json;
  h.server->Stop();
}

TEST(StreamLoopbackTest, ReportedStallsReachTheServerCounters) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  auto streamed = client.PresentStream(request, kTestChunkBytes);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_TRUE(streamed->streamed);
  ASSERT_NE(streamed->stream_id, 0u);

  // Playback runs after delivery, so stalls travel as a follow-up ack named
  // by the delivered stream id; the completion ack itself carries zero.
  auto before = client.FetchStats();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->stream_stalls, 0u);
  ASSERT_TRUE(client.ReportStreamStalls(streamed->stream_id, 3).ok());
  auto after = client.FetchStats();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->stream_stalls, 3u);

  // The blob fallback has no stream to attribute stalls to.
  EXPECT_EQ(client.ReportStreamStalls(0, 1).code(), StatusCode::kInvalidArgument);
  h.server->Stop();
}

TEST(StreamLoopbackTest, MemoizedPlansStaySoundAcrossBothStoreGenerations) {
  // The server memoizes each whole-document plan beside its cached
  // presentation. Every slot x profile, streamed and blob-fetched twice
  // (the second pass is served from the memo), must equal a fresh
  // in-process build — and stay equal after each store generation moves.
  Harness h = Harness::Start(2);
  NetClient client = h.Client();
  auto check_all = [&](const std::string& phase) {
    for (std::size_t slot = 0; slot < h.corpus->size(); ++slot) {
      for (const SystemProfile& profile : h.loop->options().profiles) {
        PresentRequest request;
        request.document = h.corpus->document(slot).name;
        request.profile = profile.name;
        const std::vector<WireBlock> want = InProcessCarve(*h.corpus, slot, profile);
        for (int pass = 0; pass < 2; ++pass) {
          ExpectBothDeliveries(client, request, want,
                               StrFormat("%s pass %d slot %zu %s", phase.c_str(), pass, slot,
                                         profile.name.c_str()));
        }
      }
    }
  };
  check_all("initial");
  const std::size_t one_story_blocks =
      InProcessCarve(*h.corpus, 0, h.loop->options().profiles[0]).size();

  // Descriptor generation: slot 0 is republished with slot 1's two-story
  // text, so a plan kept from before would now be visibly wrong.
  ASSERT_TRUE(h.corpus->UpdateDocument(0, h.corpus->document(1).document.Clone()).ok());
  ASSERT_GT(InProcessCarve(*h.corpus, 0, h.loop->options().profiles[0]).size(),
            one_story_blocks);
  check_all("after UpdateDocument");

  // Block-store generation: an empty write section retires every memoized
  // plan while the cached presentations stay.
  h.corpus->blocks().WithWrite([](BlockStore&) { return 0; });
  check_all("after a block-store write");
  h.server->Stop();
}

TEST(StreamLoopbackTest, ChannelFilteredStreamsGetTheFilteredPlan) {
  Harness h = Harness::Start(1);
  NetClient client = h.Client();
  const SystemProfile& profile = h.loop->options().profiles[0];
  PresentRequest whole;
  whole.document = h.corpus->document(0).name;
  whole.profile = profile.name;
  const std::vector<WireBlock> all = InProcessCarve(*h.corpus, 0, profile);
  ExpectBothDeliveries(client, whole, all, "whole document");

  // Filtered plans are built per request, never taken from (or put into)
  // the whole-document memo.
  PresentRequest audio = whole;
  audio.channels = {"audio"};
  const std::vector<WireBlock> audio_only = InProcessCarve(*h.corpus, 0, profile, audio.channels);
  EXPECT_LT(audio_only.size(), all.size());
  ExpectBothDeliveries(client, audio, audio_only, "audio only");
  ExpectBothDeliveries(client, whole, all, "whole document again");
  h.server->Stop();
}

TEST(StreamLoopbackTest, ConcurrentStreamsOfOneKeyShareASoundPlan) {
  // Two connections stream the same key at once from a cold cache: both
  // may build the plan, one memo wins, and every delivery is the same bytes.
  Harness h = Harness::Start(1);
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  const std::vector<WireBlock> want =
      InProcessCarve(*h.corpus, 0, h.loop->options().profiles[0]);
  auto run = [&](int connection) {
    NetClient client = h.Client();
    for (int i = 0; i < 4; ++i) {
      auto streamed = client.PresentStream(request, kTestChunkBytes);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      ASSERT_TRUE(streamed->streamed);
      ExpectSameBlocks(streamed->blocks, want, StrFormat("connection %d stream %d", connection, i));
    }
  };
  std::thread first(run, 1);
  std::thread second(run, 2);
  first.join();
  second.join();
  h.server->Stop();
}

#ifndef CMIF_FAULT_DISABLED
TEST(StreamLoopbackTest, ChunkCorruptionNeverReachesTheSharedPlan) {
  // "net.chunk.corrupt" flips bytes of a per-request copy before framing;
  // the memoized plan every later stream and blob is cut from stays clean.
  Harness h = Harness::Start(1);
  NetClient client = h.Client(/*max_attempts=*/16);
  const SystemProfile& profile = h.loop->options().profiles[0];
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  const std::vector<WireBlock> want = InProcessCarve(*h.corpus, 0, profile);
  ExpectBothDeliveries(client, request, want, "before corruption");
  std::uint64_t restarts = 0;
  {
    auto plan = fault::FaultPlan::Parse("seed=3;net.chunk.corrupt:corrupt=0.05");
    ASSERT_TRUE(plan.ok()) << plan.status();
    fault::ScopedPlan chaos(*plan);
    for (int i = 0; i < 4; ++i) {
      auto streamed = client.PresentStream(request, kTestChunkBytes);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      restarts += streamed->restarts;
    }
  }
  EXPECT_GT(restarts, 0u) << "the fault plan never corrupted a chunk";
  ExpectBothDeliveries(client, request, want, "after corruption");
  h.server->Stop();
}

TEST(StreamLoopbackTest, PlansBuiltUnderBlockFaultsAreNeverReused) {
  // News corpora are generator-backed; move one planned block into the
  // block store so "ddbms.block.get" can fail its fetch.
  Harness h = Harness::Start(1);
  const SystemProfile& profile = h.loop->options().profiles[0];
  const std::vector<WireBlock> real = InProcessCarve(*h.corpus, 0, profile);
  ASSERT_FALSE(real.empty());
  std::optional<DataDescriptor> descriptor =
      h.corpus->store().GetCopy(real.front().descriptor_id);
  ASSERT_TRUE(descriptor.has_value());
  auto block = h.corpus->blocks().WithRead(
      [&](const BlockStore& blocks) { return ResolveContent(*descriptor, blocks); });
  ASSERT_TRUE(block.ok()) << block.status();
  h.corpus->blocks().Set("materialized/block", *block);
  descriptor->set_content(std::string("materialized/block"));
  h.corpus->store().Upsert(*descriptor);

  NetClient client = h.Client();
  PresentRequest request;
  request.document = h.corpus->document(0).name;
  ASSERT_TRUE(client.Present(request).ok());  // caches the presentation, no plan yet
  {
    auto plan = fault::FaultPlan::Parse("seed=5;ddbms.block.get:transient=1.0");
    ASSERT_TRUE(plan.ok()) << plan.status();
    fault::ScopedPlan chaos(*plan);
    auto degraded = client.PresentStream(request, kTestChunkBytes);
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    ASSERT_TRUE(degraded->streamed);
    ASSERT_EQ(degraded->blocks.size(), real.size());
    EXPECT_FALSE(degraded->blocks.front().payload == real.front().payload)
        << "the faulted fetch should have shipped a placeholder";
  }
  ExpectBothDeliveries(client, request, InProcessCarve(*h.corpus, 0, profile), "after the faults");
  h.server->Stop();
}
#endif  // CMIF_FAULT_DISABLED

}  // namespace
}  // namespace net
}  // namespace cmif
