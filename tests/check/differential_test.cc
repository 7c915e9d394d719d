#include "src/check/differential.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/base/string_util.h"
#include "src/doc/builder.h"
#include "src/fmt/parser.h"
#include "src/fmt/writer.h"
#include "src/news/evening_news.h"

namespace cmif {
namespace check {
namespace {

TEST(DifferentialTest, SmallRunIsClean) {
  CheckOptions options;
  options.base_seed = 42;
  options.count = 30;
  options.target_leaves = 8;
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 30u);
  // Every document lands in exactly one verdict bucket.
  EXPECT_EQ(report->feasible + report->relaxed + report->infeasible, report->documents);
  EXPECT_GT(report->oracle_passes, 0u);
  EXPECT_NE(report->Summary().find("zero divergences"), std::string::npos);
}

TEST(DifferentialTest, ExplicitSeedListOverridesCount) {
  CheckOptions options;
  options.count = 500;  // ignored: the list wins
  options.seeds = {3, 99, 0xdeadbeef};
  options.target_leaves = 6;
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 3u);
}

TEST(DifferentialTest, PathologicalOptionsAreDeterministicInSeed) {
  GenOptions a = PathologicalGenOptions(123, 12);
  GenOptions b = PathologicalGenOptions(123, 12);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.channels, b.channels);
  EXPECT_EQ(a.par_probability, b.par_probability);
  EXPECT_EQ(a.cross_arc_rate, b.cross_arc_rate);
  EXPECT_EQ(a.tight_windows, b.tight_windows);

  // The sweep must actually cover the pathology space: over a seed range we
  // expect starvation (1 channel), deep nesting, and cross arcs to appear.
  bool starved = false;
  bool deep = false;
  bool crossing = false;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    GenOptions g = PathologicalGenOptions(seed, 12);
    starved = starved || g.channels == 1;
    deep = deep || g.max_depth >= 5;
    crossing = crossing || g.cross_arc_rate > 0;
  }
  EXPECT_TRUE(starved);
  EXPECT_TRUE(deep);
  EXPECT_TRUE(crossing);
}

TEST(DifferentialTest, GeneratedDocumentsRecordTheirSeed) {
  GenOptions options = PathologicalGenOptions(77, 8);
  auto workload = GenerateRandomDocument(options);
  ASSERT_TRUE(workload.ok()) << workload.status();
  auto recorded = workload->document.root().attrs().GetString("gen_seed");
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  EXPECT_EQ(recorded->rfind("0x", 0), 0u) << *recorded;
  EXPECT_EQ(std::stoull(*recorded, nullptr, 16), options.seed);
}

TEST(DifferentialTest, EveningNewsPassesEveryCheck) {
  // The repo's flagship document goes through the full differential set:
  // solver vs oracle, round trips, and player-vs-simulator replay.
  auto workload = BuildEveningNews(NewsOptions{});
  ASSERT_TRUE(workload.ok()) << workload.status();
  CheckCounters counters;
  Status verdict = CheckDocument(workload->document, &workload->store, "evening-news",
                                 WorkstationProfile(), &counters);
  EXPECT_TRUE(verdict.ok()) << verdict;
  EXPECT_EQ(counters.feasible, 1u);
}

// A document whose third leaf plays on a channel that is never defined —
// CheckDocument rejects it, which stands in for a divergence when testing
// the shrinker itself.
StatusOr<Document> DocWithOneBadLeaf(int leaves) {
  DocBuilder builder;
  builder.DefineChannel("txt", MediaType::kText);
  for (int i = 0; i < leaves; ++i) {
    builder.ImmText(StrFormat("n%d", i), "x")
        .OnChannel(i == 2 ? "ghost" : "txt")
        .WithDuration(MediaTime::Seconds(1));
  }
  return builder.Build();
}

TEST(ShrinkerTest, ShrinksToMinimalFailingDocument) {
  auto doc = DocWithOneBadLeaf(9);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_FALSE(CheckDocument(*doc, nullptr, "shrink-input", WorkstationProfile()).ok());

  auto shrunk = ShrinkReproducer(CheckCase{doc->Clone(), std::nullopt, std::nullopt},
                                 Lens::kDocument, nullptr, WorkstationProfile());
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  auto reparsed = ParseDocument(*shrunk);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  // Minimal: the offending leaf survives, the other eight are gone.
  EXPECT_LT(reparsed->root().SubtreeSize(), doc->root().SubtreeSize());
  EXPECT_LE(reparsed->root().SubtreeSize(), 2u);
  // And the reproducer still fails, which is what makes it a reproducer.
  EXPECT_FALSE(ReplayCorpusText(*shrunk, "shrunk").ok());
}

TEST(ShrinkerTest, RefusesAPassingDocument) {
  DocBuilder builder;
  builder.DefineChannel("txt", MediaType::kText);
  builder.ImmText("a", "x").OnChannel("txt").WithDuration(MediaTime::Seconds(1));
  auto doc = builder.Build();
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_FALSE(ShrinkReproducer(CheckCase{doc->Clone(), std::nullopt, std::nullopt},
                                Lens::kDocument, nullptr, WorkstationProfile())
                   .ok());
}

TEST(ShrinkerTest, StreamFailureKeepsItsLink) {
  // The ghost channel fails the stream lens too (it cannot compile), so it
  // stands in for a streamed-delivery divergence.
  auto doc = DocWithOneBadLeaf(9);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const StreamLink link{2000, 300};
  auto shrunk = ShrinkReproducer(CheckCase{doc->Clone(), std::nullopt, link}, Lens::kStream,
                                 nullptr, WorkstationProfile());
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_NE(shrunk->find("%% stream bandwidth=2000 chunk=300\n"), std::string::npos) << *shrunk;
  auto reparsed = ParseCase(*shrunk, "shrunk-stream");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_LT(reparsed->document.root().SubtreeSize(), doc->root().SubtreeSize());
  ASSERT_TRUE(reparsed->link.has_value());
  EXPECT_EQ(*reparsed->link, link);
  EXPECT_FALSE(reparsed->edits.has_value());
  EXPECT_FALSE(CheckStreamDocument(reparsed->document, nullptr, "shrunk-stream",
                                   WorkstationProfile(), *reparsed->link)
                   .ok());
  EXPECT_FALSE(ReplayCorpusText(*shrunk, "shrunk-stream").ok());
}

TEST(CorpusTest, ReplaysEveryCheckedInFile) {
  auto replayed = ReplayCorpusDir(CMIF_CORPUS_DIR);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_GE(*replayed, 4);
}

TEST(CorpusTest, EveryFileSurvivesParseFormatParse) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(CMIF_CORPUS_DIR)) {
    if (entry.path().extension() != ".cmif") {
      continue;
    }
    ++files;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    auto first = ParseCase(text.str(), name);
    ASSERT_TRUE(first.ok()) << first.status();
    auto formatted = FormatCase(*first);
    ASSERT_TRUE(formatted.ok()) << formatted.status();
    auto second = ParseCase(*formatted, name);
    ASSERT_TRUE(second.ok()) << name << ": " << second.status();
    EXPECT_EQ(*WriteDocument(second->document), *WriteDocument(first->document)) << name;
    EXPECT_EQ(second->link, first->link) << name;
    ASSERT_EQ(second->edits.has_value(), first->edits.has_value()) << name;
    for (std::size_t i = 0; first->edits && i < first->edits->size(); ++i) {
      ASSERT_LT(i, second->edits->size()) << name;
      EXPECT_EQ(FormatEditOp((*second->edits)[i]), FormatEditOp((*first->edits)[i])) << name;
    }
    EXPECT_EQ(*FormatCase(*second), *formatted) << name;
  }
  EXPECT_GE(files, 4);
}

}  // namespace
}  // namespace check
}  // namespace cmif
