// Self-tests for the stream lens of the differential harness
// (src/check/differential.h): seeded sweeps are clean and deterministic, the
// flagship document streams without divergence under both generous and
// starved links, and the `%% stream` corpus trailer drives replay with its
// marker-line parameters and rejects malformed ones.
#include <gtest/gtest.h>

#include <string>

#include "src/check/differential.h"
#include "src/news/evening_news.h"

namespace cmif {
namespace check {
namespace {

TEST(StreamDifferentialTest, SmallRunIsClean) {
  CheckOptions options;
  options.base_seed = 42;
  options.count = 25;
  options.target_leaves = 8;
  options.shrink = false;
  options.link = StreamLink{};
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 25u);
  EXPECT_EQ(report->feasible + report->relaxed + report->infeasible, report->documents);
  EXPECT_LE(report->streamed, report->feasible + report->relaxed);
  EXPECT_NE(report->Summary().find("zero divergences"), std::string::npos);
}

TEST(StreamDifferentialTest, StarvedLinkStaysDivergenceFree) {
  // A link slower than the schedule's demand: stalls are expected, wrong
  // bytes or reordered events are not — exactly the invariant the harness
  // enforces per document.
  CheckOptions options;
  options.base_seed = 7;
  options.count = 15;
  options.target_leaves = 10;
  options.link = StreamLink{2000, 300};
  options.shrink = false;
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 15u);
}

TEST(StreamDifferentialTest, ExplicitSeedListOverridesCount) {
  CheckOptions options;
  options.count = 500;  // ignored: the list wins
  options.seeds = {3, 99, 0xdeadbeef};
  options.target_leaves = 6;
  options.shrink = false;
  options.link = StreamLink{};
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 3u);
}

TEST(StreamDifferentialTest, EveningNewsStreamsClean) {
  auto news = BuildEveningNews(NewsOptions{});
  ASSERT_TRUE(news.ok()) << news.status();
  // Generous link: the stream must deliver every block on time.
  StreamLink fast{/*bandwidth_bytes_per_s=*/std::int64_t{1} << 30, /*chunk_bytes=*/64 << 10};
  Status generous =
      CheckStreamDocument(news->document, &news->store, "news-fast", WorkstationProfile(), fast);
  EXPECT_TRUE(generous.ok()) << generous;
  // Starved link: stalls allowed, divergence not.
  StreamLink slow{/*bandwidth_bytes_per_s=*/1500, /*chunk_bytes=*/512};
  Status starved =
      CheckStreamDocument(news->document, &news->store, "news-slow", WorkstationProfile(), slow);
  EXPECT_TRUE(starved.ok()) << starved;
}

TEST(StreamDifferentialTest, CorpusStreamTrailerDrivesReplay) {
  const std::string document =
      "(cmif\n"
      "  (seq (name s channel_dict (txt (medium text)))\n"
      "    (imm (name a channel txt duration 1/1) \"one\")\n"
      "    (imm (name b channel txt duration 2/1) \"two\")\n"
      "  )\n"
      ")\n";
  EXPECT_TRUE(ReplayCorpusText(document + "%% stream bandwidth=2000 chunk=300\n",
                               "inline-stream")
                  .ok());
  // Marker defaults: a bare marker replays at the default link.
  EXPECT_TRUE(ReplayCorpusText(document + "%% stream\n", "inline-default").ok());
  // A malformed trailer is a structured replay failure naming the file,
  // never a silently different link.
  const char* const bad_trailers[] = {
      "%% stream chunk=0\n",
      "%% stream chunk=nonsense\n",
      "%% stream bandwidth=nonsense\n",
      "%% stream bandwidth=-5\n",
      "%% stream chunk=300abc\n",
      "%% stream bandwith=2000\n",
      "%% streamz\n",
      "%% stream\nretune-arc / 0 0 0 inf\n",
      "%% stream\n%% stream\n",
      "%% stream chunk=300 chunk=400\n",
      "%% stream chunk=255\n",
      "%% stream chunk=4194305\n",
      "%% edits\nadd-arc / a end b begin may 0/1 0/1 inf\n%% edits\n",
  };
  for (const char* trailer : bad_trailers) {
    Status status = ReplayCorpusText(document + trailer, "inline-bad");
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << trailer << status;
    EXPECT_NE(status.message().find("inline-bad"), std::string::npos) << trailer << status;
  }
}

TEST(StreamDifferentialTest, EditAndStreamTrailersCompose) {
  // A corpus file may carry both sections: the edit trace replays first,
  // then the (original) document streams.
  const std::string text =
      "(cmif\n"
      "  (seq (name s channel_dict (txt (medium text)))\n"
      "    (imm (name a channel txt duration 1/1) \"one\")\n"
      "    (imm (name b channel txt duration 2/1) \"two\")\n"
      "  )\n"
      ")\n"
      "%% edits\n"
      "add-arc / a end b begin may 0/1 0/1 inf\n"
      "%% stream bandwidth=4000 chunk=256\n";
  Status status = ReplayCorpusText(text, "inline-both");
  EXPECT_TRUE(status.ok()) << status;
}

}  // namespace
}  // namespace check
}  // namespace cmif
