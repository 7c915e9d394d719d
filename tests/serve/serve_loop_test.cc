#include "src/serve/serve.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/news/evening_news.h"
#include "src/pipeline/pipeline.h"

namespace cmif {
namespace {

std::unique_ptr<ServeCorpus> Corpus(int documents) {
  auto corpus = BuildNewsCorpus(documents);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return std::move(corpus).value();
}

TEST(ServeCorpusTest, MergesVariantCatalogsIntoOneStore) {
  auto corpus = Corpus(3);
  EXPECT_EQ(corpus->size(), 3u);
  // Variants share story-prefix descriptors: the merged store is smaller
  // than the sum of the three catalogs but covers the largest variant.
  EXPECT_GT(corpus->store().size(), 0u);
  auto one_story = BuildEveningNews(NewsOptions{});
  ASSERT_TRUE(one_story.ok());
  EXPECT_GE(corpus->store().size(), one_story->store.size());
  // Distinct corpus slots never share a document hash, even with equal text.
  std::set<std::uint64_t> hashes;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    hashes.insert(corpus->document(i).document_hash);
  }
  EXPECT_EQ(hashes.size(), corpus->size());
}

TEST(ServeTraceTest, DeterministicUnderFixedSeed) {
  ServeOptions options;
  options.seed = 42;
  options.zipf_skew = 1.0;
  std::vector<ServeRequest> a = GenerateTrace(8, 500, options);
  std::vector<ServeRequest> b = GenerateTrace(8, 500, options);
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].document, b[i].document);
    EXPECT_EQ(a[i].profile, b[i].profile);
  }
  options.seed = 43;
  std::vector<ServeRequest> c = GenerateTrace(8, 500, options);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].document != a[i].document || c[i].profile != a[i].profile;
  }
  EXPECT_TRUE(differs);
}

TEST(ServeTraceTest, ZipfSkewConcentratesOnHotDocuments) {
  ServeOptions options;
  options.zipf_skew = 1.0;
  std::vector<ServeRequest> trace = GenerateTrace(16, 2000, options);
  std::size_t hot = 0;
  for (const ServeRequest& request : trace) {
    if (request.document == 0) {
      ++hot;
    }
  }
  // Rank 0 carries ~29% of Zipf(1.0) mass over 16 documents; uniform would
  // be 6.25%. Use a loose threshold to stay seed-robust.
  EXPECT_GT(hot, trace.size() / 6);
}

TEST(ServeLoopTest, CacheHitIsBitIdenticalToColdPath) {
  auto corpus = Corpus(2);
  ServeOptions options;
  options.threads = 1;
  ServeLoop loop(*corpus, options);

  ServeRequest request;
  request.document = 1;
  request.profile = 1;  // personal profile exercises filter planning
  ServeResponse cold = loop.Serve(request);
  ASSERT_TRUE(cold.served()) << cold.error;
  EXPECT_EQ(loop.cache().stats().misses, 1u);

  ServeResponse warm = loop.Serve(request);
  ASSERT_TRUE(warm.served()) << warm.error;
  EXPECT_EQ(loop.cache().stats().hits, 1u);
  EXPECT_EQ(warm.presentation->map.Serialize(), cold.presentation->map.Serialize());

  // The compiled mapping must equal what a direct pipeline run produces.
  const ServeDocument& doc = corpus->document(request.document);
  auto direct = corpus->store().WithRead([&](const DescriptorStore& store) {
    return corpus->blocks().WithRead([&](const BlockStore& blocks) {
      PipelineOptions pipeline_options;
      pipeline_options.profile = options.profiles[request.profile];
      return CompilePresentation(doc.document, store, blocks, pipeline_options);
    });
  });
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(warm.presentation->map.Serialize(), direct->presentation_map.Serialize());
  EXPECT_EQ(warm.presentation->filter.plans.size(), direct->filter.plans.size());
  EXPECT_EQ(warm.presentation->schedule.schedule.events().size(),
            direct->schedule.schedule.events().size());
}

TEST(ServeLoopTest, StoreMutationInvalidatesCachedCompilations) {
  auto corpus = Corpus(1);
  ServeLoop loop(*corpus, ServeOptions{});
  ServeRequest request;
  ASSERT_TRUE(loop.Serve(request).served());
  ASSERT_TRUE(loop.Serve(request).served());
  EXPECT_EQ(loop.cache().stats().hits, 1u);

  // Any write section bumps the generation; the next request recompiles.
  corpus->store().WithWrite([](DescriptorStore&) { return 0; });
  ASSERT_TRUE(loop.Serve(request).served());
  MappingCache::Stats stats = loop.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ServeLoopTest, DisabledCacheAlwaysCompiles) {
  auto corpus = Corpus(1);
  ServeOptions options;
  options.use_cache = false;
  ServeLoop loop(*corpus, options);
  ServeRequest request;
  ASSERT_TRUE(loop.Serve(request).served());
  ASSERT_TRUE(loop.Serve(request).served());
  MappingCache::Stats stats = loop.cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ServeLoopTest, RejectsOutOfRangeRequests) {
  auto corpus = Corpus(1);
  ServeLoop loop(*corpus, ServeOptions{});
  ServeRequest request;
  request.document = 5;
  ServeResponse response = loop.Serve(request);
  EXPECT_FALSE(response.served());
  EXPECT_EQ(response.error.code(), StatusCode::kInvalidArgument);
}

TEST(ServeLoopTest, EveningNewsIntegrationAtFourThreads) {
  auto corpus = Corpus(4);
  ServeOptions options;
  options.threads = 4;
  options.seed = 7;
  ServeLoop loop(*corpus, options);
  std::vector<ServeRequest> trace = GenerateTrace(corpus->size(), 200, options);
  auto stats = loop.Run(trace);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->requests, 200u);
  EXPECT_EQ(stats->errors, 0u);
  EXPECT_EQ(stats->cache_hits + stats->cache_misses, 200u);
  // 4 documents x 2 profiles = 8 distinct compilations; concurrent workers
  // may stampede on a not-yet-filled key, so at most one extra miss per
  // worker per key.
  EXPECT_LE(stats->cache_misses, 8u * 4u);
  EXPECT_GE(stats->cache_hits, 200u - 8u * 4u);
  EXPECT_GT(stats->throughput_rps, 0.0);
  EXPECT_GE(stats->p99_ms, stats->p50_ms);
  EXPECT_FALSE(stats->Summary().empty());

  // A second pass over the same trace is fully warm.
  auto warm = loop.Run(trace);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_misses, 0u);
  EXPECT_EQ(warm->cache_hits, 200u);
}

TEST(ServeLoopTest, ConcurrentRequestsWithConcurrentCaptures) {
  // The integration-level race check: serve traffic while a writer keeps
  // capturing new descriptors into the shared store.
  auto corpus = Corpus(2);
  ServeOptions options;
  options.threads = 4;
  ServeLoop loop(*corpus, options);
  std::vector<ServeRequest> trace = GenerateTrace(corpus->size(), 100, options);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      AttrList attrs;
      attrs.Set("medium", AttrValue::Id("text"));
      corpus->store().Upsert(DataDescriptor("hammer-" + std::to_string(i++), std::move(attrs)));
    }
  });
  auto stats = loop.Run(trace);
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->errors, 0u);
  EXPECT_EQ(stats->requests, 100u);
}

}  // namespace
}  // namespace cmif
