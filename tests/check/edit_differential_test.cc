#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/differential.h"
#include "src/doc/edit.h"
#include "src/fmt/parser.h"
#include "src/gen/editgen.h"

namespace cmif {
namespace check {
namespace {

// The checked-in reproducer exercises the full edit-session differential:
// an incremental retune, an add-arc that must conflict with the identical
// canonical cycle on both sides, and the remove-arc that recovers.
constexpr const char* kEditDoc = R"((cmif
  (seq (name edit_diff channel_dict (txt (medium text)))
    (syncarc end must a 1/1 begin b 0/1 inf)
    (imm (name a channel txt duration 2/1) "first")
    (imm (name b channel txt duration 1/1) "second")
  )
))";

std::vector<EditOp> ParseTrace(const std::vector<std::string>& lines) {
  std::vector<EditOp> trace;
  for (const std::string& line : lines) {
    auto op = ParseEditOp(line);
    EXPECT_TRUE(op.ok()) << line << ": " << op.status();
    trace.push_back(*op);
  }
  return trace;
}

TEST(EditDifferentialTest, HandWrittenTraceIsClean) {
  auto doc = ParseDocument(kEditDoc);
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::vector<EditOp> trace = ParseTrace({
      "retune-arc / 0 2 -1/2 inf",
      "add-arc / b begin a begin must 1 0 0",  // conflict on both sides
      "remove-arc / 1",                        // recovery
      "retune-arc / 0 0 0 inf",
  });
  Status status = CheckEditTrace(*doc, nullptr, trace, "hand-written");
  EXPECT_TRUE(status.ok()) << status;
}

TEST(EditDifferentialTest, GeneratedTracesAreDeterministicInSeed) {
  auto doc = ParseDocument(kEditDoc);
  ASSERT_TRUE(doc.ok());
  EditGenOptions options;
  options.count = 10;
  options.seed = 5;
  auto a_or = GenerateEditTrace(*doc, options);
  auto b_or = GenerateEditTrace(*doc, options);
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  std::vector<EditOp> a = *a_or;
  std::vector<EditOp> b = *b_or;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatEditOp(a[i]), FormatEditOp(b[i])) << "op " << i;
  }
  options.seed = 6;
  auto c_or = GenerateEditTrace(*doc, options);
  ASSERT_TRUE(c_or.ok());
  std::vector<EditOp> c = *c_or;
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = FormatEditOp(a[i]) != FormatEditOp(c[i]);
  }
  EXPECT_TRUE(differs) << "different seeds produced the identical trace";
}

TEST(EditDifferentialTest, SweepWithEditsIsClean) {
  // The in-tree version of the CI edit-differential job, scaled down: every
  // generated document gets a seeded edit trace replayed through an
  // EditSession and differentially checked after every op.
  CheckOptions options;
  options.base_seed = 42;
  options.count = 12;
  options.target_leaves = 8;
  options.edits = 6;
  options.shrink = false;
  auto report = RunDifferentialCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->documents, 12u);
}

TEST(EditDifferentialTest, ShrinkerRefusesATraceThatPassesEveryCheck) {
  auto doc = ParseDocument(kEditDoc);
  ASSERT_TRUE(doc.ok());
  std::vector<EditOp> trace = ParseTrace({
      "retune-arc / 0 2 -1/2 inf",
      "add-arc / a end b begin may 0 0 inf",
  });
  // A reproducer is only meaningful for a diverging trace; handing the
  // shrinker a clean one must fail loudly instead of emitting an empty
  // "reproducer" that reproduces nothing.
  auto shrunk = ShrinkReproducer(CheckCase{doc->Clone(), trace, std::nullopt}, Lens::kEdit,
                                 nullptr, WorkstationProfile());
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EditDifferentialTest, ShrunkEditFailureRoundTripsThroughItsTrailer) {
  // An op that puts a leaf on an undefined channel applies identically on
  // both sides but leaves a document nothing can compile: an edit-lens
  // failure the document lens never sees.
  auto doc = ParseDocument(kEditDoc);
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(CheckDocument(*doc, nullptr, "edit-doc", WorkstationProfile()).ok());
  std::vector<EditOp> trace = ParseTrace({
      "retune-arc / 0 2 -1/2 inf",
      "add-node / ghost_leaf imm ghost",
      "retune-arc / 0 0 0 inf",
  });
  ASSERT_FALSE(CheckEditTrace(*doc, nullptr, trace, "edit-doc").ok());
  auto shrunk = ShrinkReproducer(CheckCase{doc->Clone(), trace, std::nullopt}, Lens::kEdit,
                                 nullptr, WorkstationProfile());
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  auto reparsed = ParseCase(*shrunk, "shrunk-edit");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << *shrunk;
  EXPECT_FALSE(reparsed->link.has_value());
  ASSERT_TRUE(reparsed->edits.has_value());
  ASSERT_EQ(reparsed->edits->size(), 1u) << *shrunk;
  EXPECT_EQ(FormatEditOp(reparsed->edits->front()), FormatEditOp(trace[1]));
  EXPECT_FALSE(CheckEditTrace(reparsed->document, nullptr, *reparsed->edits, "shrunk-edit").ok());
  auto formatted = FormatCase(*reparsed);
  ASSERT_TRUE(formatted.ok()) << formatted.status();
  EXPECT_EQ(*formatted, *shrunk);
  EXPECT_FALSE(ReplayCorpusText(*shrunk, "shrunk-edit").ok());
}

TEST(EditDifferentialTest, CorpusTextWithEditSectionReplays) {
  std::string text = std::string(kEditDoc) +
                     "\n%% edits\n"
                     "retune-arc / 0 3 0 inf\n"
                     "add-arc / a begin b begin may 2 0 inf\n";
  Status status = ReplayCorpusText(text, "inline-corpus");
  EXPECT_TRUE(status.ok()) << status;
}

}  // namespace
}  // namespace check
}  // namespace cmif
