// The prefetch planner's contract (src/serve/prefetch.h): delivery order is
// the schedule's must-start order, offsets tile the payload exactly, the
// hash is end-to-end, channel restriction mirrors response serialization,
// fetch failures degrade to placeholders instead of failing the stream, and
// an infeasible schedule yields an empty plan. All of it deterministic —
// the same plan backs both chunked streaming and v4 blob delivery, so any
// nondeterminism here would break resume and the differential harness.
#include "src/serve/prefetch.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/api/cmif.h"
#include "src/base/string_util.h"
#include "src/fault/fault.h"
#include "src/media/block_codec.h"
#include "src/news/evening_news.h"
#include "src/pipeline/pipeline.h"

namespace cmif {
namespace {

struct Compiled {
  std::unique_ptr<ServeCorpus> corpus;
  CompiledPresentation presentation;
};

Compiled CompileNewsDocument() {
  Compiled c;
  auto corpus = BuildNewsCorpus(1);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  c.corpus = std::move(corpus).value();
  PipelineOptions options;
  options.profile = WorkstationProfile();
  auto report = c.corpus->store().WithRead([&](const DescriptorStore& store) {
    return c.corpus->blocks().WithRead([&](const BlockStore& blocks) {
      return api::Compile(c.corpus->document(0).document, store, blocks, options);
    });
  });
  EXPECT_TRUE(report.ok()) << report.status();
  c.presentation.map = report->presentation_map;
  c.presentation.filter = report->filter;
  c.presentation.schedule = report->schedule;
  return c;
}

StatusOr<StreamPlan> PlanFor(const Compiled& c,
                             const std::vector<std::string>& channels = {}) {
  return c.corpus->store().WithRead([&](const DescriptorStore& store) {
    return c.corpus->blocks().WithRead([&](const BlockStore& blocks) {
      return BuildStreamPlan(c.presentation, store, blocks, WorkstationProfile(),
                             channels);
    });
  });
}

TEST(PrefetchPlanTest, TilesThePayloadInMustStartOrder) {
  Compiled c = CompileNewsDocument();
  auto plan = PlanFor(c);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan->blocks.empty()) << "news documents reference block content";
  EXPECT_FALSE(plan->degraded);
  EXPECT_EQ(plan->payload_hash, Fnv1a64(plan->bytes));

  std::uint64_t offset = 0;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < plan->blocks.size(); ++i) {
    const PrefetchBlock& block = plan->blocks[i];
    EXPECT_EQ(block.offset, offset) << "block " << i << " leaves a gap";
    EXPECT_GT(block.bytes, 0u) << i;
    offset += block.bytes;
    EXPECT_TRUE(seen.insert(block.descriptor_id).second)
        << "descriptor " << block.descriptor_id << " planned twice";
    // A block can never be required before its transfer must begin.
    EXPECT_LE(block.must_start_by, block.first_need) << i;
    if (i > 0) {
      EXPECT_LE(plan->blocks[i - 1].must_start_by, block.must_start_by)
          << "delivery order must be ascending must-start at block " << i;
    }
    // Every planned payload is a decodable canonical block encoding.
    auto decoded = DecodeBlockPayload(
        std::string_view(plan->bytes)
            .substr(static_cast<std::size_t>(block.offset),
                    static_cast<std::size_t>(block.bytes)));
    EXPECT_TRUE(decoded.ok()) << block.descriptor_id << ": " << decoded.status();
  }
  EXPECT_EQ(offset, plan->total_bytes());
}

TEST(PrefetchPlanTest, IsDeterministic) {
  Compiled c = CompileNewsDocument();
  auto first = PlanFor(c);
  auto second = PlanFor(c);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->bytes, second->bytes);
  EXPECT_EQ(first->payload_hash, second->payload_hash);
  ASSERT_EQ(first->blocks.size(), second->blocks.size());
  for (std::size_t i = 0; i < first->blocks.size(); ++i) {
    EXPECT_EQ(first->blocks[i].descriptor_id, second->blocks[i].descriptor_id) << i;
    EXPECT_EQ(first->blocks[i].offset, second->blocks[i].offset) << i;
  }
}

TEST(PrefetchPlanTest, ChannelRestrictionPlansASubset) {
  Compiled c = CompileNewsDocument();
  auto full = PlanFor(c);
  ASSERT_TRUE(full.ok()) << full.status();
  auto audio = PlanFor(c, {"audio"});
  ASSERT_TRUE(audio.ok()) << audio.status();
  EXPECT_LT(audio->blocks.size(), full->blocks.size());
  EXPECT_LT(audio->total_bytes(), full->total_bytes());
  std::set<std::string> all;
  for (const PrefetchBlock& block : full->blocks) {
    all.insert(block.descriptor_id);
  }
  for (const PrefetchBlock& block : audio->blocks) {
    EXPECT_TRUE(all.count(block.descriptor_id))
        << block.descriptor_id << " not in the unrestricted plan";
  }
  // A selection naming no real channel plans nothing.
  auto none = PlanFor(c, {"no-such-channel"});
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->blocks.empty());
  EXPECT_TRUE(none->bytes.empty());
}

TEST(PrefetchPlanTest, MissingDescriptorsDegradeAndSkip) {
  Compiled c = CompileNewsDocument();
  auto full = PlanFor(c);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->blocks.empty());
  // A descriptor the schedule references vanishes from the store (an edit
  // raced the request): nothing can stand in for it, so its block is
  // skipped, the plan is flagged degraded — and still tiles and hashes.
  const std::string victim = full->blocks.front().descriptor_id;
  BlockStore empty;
  auto degraded = c.corpus->store().WithRead([&](const DescriptorStore& store) {
    DescriptorStore pruned = store;
    EXPECT_TRUE(pruned.Remove(victim));
    return BuildStreamPlan(c.presentation, pruned, empty, WorkstationProfile());
  });
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->blocks.size(), full->blocks.size() - 1);
  EXPECT_EQ(degraded->payload_hash, Fnv1a64(degraded->bytes));
  std::uint64_t offset = 0;
  for (const PrefetchBlock& block : degraded->blocks) {
    EXPECT_NE(block.descriptor_id, victim);
    EXPECT_EQ(block.offset, offset);
    offset += block.bytes;
    auto decoded = DecodeBlockPayload(
        std::string_view(degraded->bytes)
            .substr(static_cast<std::size_t>(block.offset),
                    static_cast<std::size_t>(block.bytes)));
    EXPECT_TRUE(decoded.ok()) << block.descriptor_id << ": " << decoded.status();
  }
  EXPECT_EQ(offset, degraded->total_bytes());
}

TEST(PrefetchPlanTest, InfeasibleScheduleYieldsAnEmptyPlan) {
  Compiled c = CompileNewsDocument();
  c.presentation.schedule.feasible = false;
  auto plan = PlanFor(c);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->blocks.empty());
  EXPECT_TRUE(plan->bytes.empty());
  EXPECT_FALSE(plan->degraded);
}

// ServeLoop::StreamPlanFor: the whole-document plan is memoized beside the
// mapping-cache entry that holds the presentation and reused (same object)
// while both store generations hold; every other case builds per call. The
// plan handed out is always the one an in-process build would produce.
struct MemoRig {
  std::unique_ptr<ServeCorpus> corpus;
  std::unique_ptr<ServeLoop> loop;

  static MemoRig Start(bool use_cache = true) {
    MemoRig rig;
    auto corpus = BuildNewsCorpus(2);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    rig.corpus = std::move(corpus).value();
    ServeOptions options;
    options.use_cache = use_cache;
    rig.loop = std::make_unique<ServeLoop>(*rig.corpus, options);
    return rig;
  }

  std::shared_ptr<const CompiledPresentation> Serve(const ServeRequest& request) {
    ServeResponse response = loop->Serve(request);
    EXPECT_TRUE(response.served()) << response.error;
    return response.presentation;
  }

  std::shared_ptr<const StreamPlan> Plan(const ServeRequest& request,
                                         const CompiledPresentation& presentation,
                                         const std::vector<std::string>& channels = {}) {
    auto plan = loop->StreamPlanFor(request, presentation, channels);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? *plan : nullptr;
  }

  // What a fresh build against the stores' current state produces.
  StreamPlan Reference(const ServeRequest& request, const CompiledPresentation& presentation,
                       const std::vector<std::string>& channels = {}) {
    auto plan = corpus->store().WithRead([&](const DescriptorStore& store) {
      return corpus->blocks().WithRead([&](const BlockStore& blocks) {
        return BuildStreamPlan(presentation, store, blocks,
                               loop->options().profiles[request.profile], channels);
      });
    });
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? *std::move(plan) : StreamPlan();
  }
};

// News corpora are generator-backed (descriptors only). Moves one
// descriptor's content into the block store under a key, so block-store
// writes and "ddbms.block.get" faults reach every plan that includes it.
std::string MaterializeIntoBlockStore(ServeCorpus& corpus, const std::string& descriptor_id) {
  std::optional<DataDescriptor> descriptor = corpus.store().GetCopy(descriptor_id);
  EXPECT_TRUE(descriptor.has_value()) << descriptor_id;
  auto block = corpus.blocks().WithRead(
      [&](const BlockStore& blocks) { return ResolveContent(*descriptor, blocks); });
  EXPECT_TRUE(block.ok()) << block.status();
  const std::string key = "materialized/" + descriptor_id;
  corpus.blocks().Set(key, *block);
  descriptor->set_content(key);
  corpus.store().Upsert(*descriptor);
  return key;
}

void ExpectSamePlan(const StreamPlan& got, const StreamPlan& want) {
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.payload_hash, want.payload_hash);
  EXPECT_EQ(got.degraded, want.degraded);
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (std::size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_EQ(got.blocks[i].descriptor_id, want.blocks[i].descriptor_id) << i;
    EXPECT_EQ(got.blocks[i].offset, want.blocks[i].offset) << i;
  }
}

TEST(StreamPlanMemoTest, ReusesOnePlanPerPresentationAndProfile) {
  MemoRig rig = MemoRig::Start();
  for (std::size_t profile = 0; profile < rig.loop->options().profiles.size(); ++profile) {
    const ServeRequest request{0, profile};
    auto presentation = rig.Serve(request);
    auto first = rig.Plan(request, *presentation);
    auto second = rig.Plan(request, *rig.Serve(request));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get()) << "a warm plan must be the memoized object";
    ExpectSamePlan(*first, rig.Reference(request, *presentation));
  }
  // Profiles plan separately: bandwidths differ, so delivery order may too.
  auto workstation = rig.Plan({0, 0}, *rig.Serve({0, 0}));
  auto personal = rig.Plan({0, 1}, *rig.Serve({0, 1}));
  EXPECT_NE(workstation.get(), personal.get());
}

TEST(StreamPlanMemoTest, EachStoreGenerationInvalidatesThePlan) {
  MemoRig rig = MemoRig::Start();
  const ServeRequest request{0, 0};
  auto presentation = rig.Serve(request);
  auto memoized = rig.Plan(request, *presentation);

  // A block-store write section (even an empty one) leaves the presentation
  // cached but retires its plan: the next plan is rebuilt, then reused.
  rig.corpus->blocks().WithWrite([](BlockStore&) { return 0; });
  ASSERT_EQ(rig.Serve(request).get(), presentation.get());
  auto rebuilt = rig.Plan(request, *presentation);
  EXPECT_NE(rebuilt.get(), memoized.get());
  EXPECT_EQ(rig.Plan(request, *presentation).get(), rebuilt.get());
  ExpectSamePlan(*rebuilt, rig.Reference(request, *presentation));

  // A descriptor-store write moves the key past the cached entry: the old
  // presentation is now stale and plans per call, never memoized.
  rig.corpus->store().WithWrite([](DescriptorStore&) { return 0; });
  auto stale_a = rig.Plan(request, *presentation);
  auto stale_b = rig.Plan(request, *presentation);
  EXPECT_NE(stale_a.get(), stale_b.get());
  ExpectSamePlan(*stale_a, rig.Reference(request, *presentation));
  // The recompiled presentation memoizes again.
  auto fresh = rig.Serve(request);
  EXPECT_NE(fresh.get(), presentation.get());
  auto warm = rig.Plan(request, *fresh);
  EXPECT_EQ(rig.Plan(request, *fresh).get(), warm.get());

  // A block whose stored content changes is planned with its new bytes.
  const std::string key =
      MaterializeIntoBlockStore(*rig.corpus, warm->blocks.front().descriptor_id);
  auto materialized = rig.Serve(request);
  auto before = rig.Plan(request, *materialized);
  EXPECT_EQ(before->payload_hash, warm->payload_hash) << "materializing must not change bytes";
  rig.corpus->blocks().Set(key, DataBlock::FromText(TextBlock("replaced", TextFormatting())));
  auto changed = rig.Plan(request, *materialized);
  EXPECT_NE(changed->payload_hash, before->payload_hash);
  ExpectSamePlan(*changed, rig.Reference(request, *materialized));
}

TEST(StreamPlanMemoTest, FilteredUncachedAndDegradedPlansAreBuiltPerCall) {
  MemoRig rig = MemoRig::Start();
  const ServeRequest request{0, 0};
  auto presentation = rig.Serve(request);
  const std::vector<std::string> audio = {"audio"};
  auto filtered_a = rig.Plan(request, *presentation, audio);
  auto filtered_b = rig.Plan(request, *presentation, audio);
  EXPECT_NE(filtered_a.get(), filtered_b.get());
  ExpectSamePlan(*filtered_a, rig.Reference(request, *presentation, audio));
  EXPECT_LT(filtered_a->blocks.size(), rig.Plan(request, *presentation)->blocks.size());

  // Clear() drops plans with their entries; the presentation object a
  // caller still holds is then planned per call.
  rig.loop->cache().Clear();
  EXPECT_NE(rig.Plan(request, *presentation).get(), rig.Plan(request, *presentation).get());

  MemoRig uncached = MemoRig::Start(/*use_cache=*/false);
  auto compiled = uncached.Serve(request);
  EXPECT_NE(uncached.Plan(request, *compiled).get(), uncached.Plan(request, *compiled).get());

#ifndef CMIF_FAULT_DISABLED
  // Blocks that fail to load degrade to placeholders: that plan answers its
  // own request and is never memoized, so the next clean plan is real.
  MemoRig faulted = MemoRig::Start();
  auto first = faulted.Plan(request, *faulted.Serve(request));
  MaterializeIntoBlockStore(*faulted.corpus, first->blocks.front().descriptor_id);
  auto cached = faulted.Serve(request);
  auto plan = fault::FaultPlan::Parse("seed=5;ddbms.block.get:transient=1.0");
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::shared_ptr<const StreamPlan> degraded;
  {
    fault::ScopedPlan chaos(*plan);
    degraded = faulted.Plan(request, *cached);
  }
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->degraded);
  auto clean = faulted.Plan(request, *cached);
  EXPECT_FALSE(clean->degraded);
  EXPECT_NE(clean->payload_hash, degraded->payload_hash);
  EXPECT_EQ(faulted.Plan(request, *cached).get(), clean.get());
#endif
}

TEST(StreamPlanMemoTest, ConcurrentPlannersAgreeWithEachOther) {
  // Four threads plan the same key while a writer retires plans with empty
  // block-store write sections: every plan handed out is whole and equal.
  MemoRig rig = MemoRig::Start();
  const ServeRequest request{1, 0};
  auto presentation = rig.Serve(request);
  const StreamPlan want = rig.Reference(request, *presentation);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto plan = rig.loop->StreamPlanFor(request, *presentation);
        ASSERT_TRUE(plan.ok()) << plan.status();
        EXPECT_EQ((*plan)->payload_hash, want.payload_hash);
        EXPECT_EQ((*plan)->bytes.size(), want.bytes.size());
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 4; ++i) {
      rig.corpus->blocks().WithWrite([](BlockStore&) { return 0; });
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace cmif
