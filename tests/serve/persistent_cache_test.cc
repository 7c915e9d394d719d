#include "src/serve/persistent_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/net/presentation_wire.h"
#include "src/serve/serve.h"

namespace cmif {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<ServeCorpus> Corpus(int documents) {
  auto corpus = BuildNewsCorpus(documents);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return std::move(corpus).value();
}

// A fresh per-test cache directory under the gtest temp root.
std::string CacheDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("pcache_" + name);
  fs::remove_all(dir);
  return dir.string();
}

MappingCacheKey KeyFor(const ServeCorpus& corpus, std::size_t document,
                       const std::string& profile) {
  MappingCacheKey key;
  key.document_hash = corpus.document(document).document_hash;
  key.channel_hash = corpus.document(document).channel_hash;
  key.profile = profile;
  key.store_generation = corpus.store().generation();
  return key;
}

// Compiles one (document, profile) fresh, bypassing every cache tier.
std::shared_ptr<const CompiledPresentation> CompileFresh(ServeCorpus& corpus,
                                                         const ServeRequest& request) {
  ServeOptions options;
  options.threads = 1;
  options.use_cache = false;
  ServeLoop loop(corpus, options);
  ServeResponse compiled = loop.Serve(request);
  EXPECT_TRUE(compiled.served()) << compiled.error;
  return std::move(compiled.presentation);
}

TEST(CompiledWireFormatTest, SerializeParseRoundTripIsByteIdentical) {
  auto corpus = Corpus(2);
  ServeRequest request;
  request.document = 1;
  auto compiled = CompileFresh(*corpus, request);
  ASSERT_NE(compiled, nullptr);

  std::string payload = SerializeCompiledPresentation(*compiled);
  ASSERT_FALSE(payload.empty());
  const Document& document = corpus->document(1).document;
  auto parsed = corpus->store().WithRead([&](const DescriptorStore& store) {
    return ParseCompiledPresentation(payload, document, store);
  });
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // The contract: a reconstructed entry is indistinguishable on the wire.
  EXPECT_EQ(net::SerializePresentation(*parsed, {}), net::SerializePresentation(*compiled, {}));
  EXPECT_EQ(net::PresentationHash(*parsed, {}), net::PresentationHash(*compiled, {}));
  // And the second serialization is byte-stable too (deterministic output).
  EXPECT_EQ(SerializeCompiledPresentation(*parsed), payload);
}

TEST(CompiledWireFormatTest, ParseRejectsEventListMismatch) {
  auto corpus = Corpus(2);
  // Document 0 has one story, document 1 has two: an entry serialized from
  // one must not reconstruct against the other.
  auto compiled = CompileFresh(*corpus, ServeRequest{.document = 1, .profile = 0});
  std::string payload = SerializeCompiledPresentation(*compiled);
  auto parsed = corpus->store().WithRead([&](const DescriptorStore& store) {
    return ParseCompiledPresentation(payload, corpus->document(0).document, store);
  });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << parsed.status();
}

TEST(PersistentCacheTest, PutThenGetAcrossReopen) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("reopen");
  ServeRequest request;
  auto compiled = CompileFresh(*corpus, request);
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);

  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    EXPECT_TRUE((*cache)->Put(key, compiled));
    (*cache)->Flush();
    EXPECT_EQ((*cache)->stats().writes, 1u);
    EXPECT_GT((*cache)->stats().disk_bytes, 0u);
  }

  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_EQ((*cache)->stats().entries, 1u);
  EXPECT_EQ((*cache)->stats().orphans_adopted, 0u);
  auto hit = corpus->store().WithRead([&](const DescriptorStore& store) {
    return (*cache)->Get(key, corpus->document(0).document, store);
  });
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(net::PresentationHash(*hit, {}), net::PresentationHash(*compiled, {}));
  EXPECT_EQ((*cache)->stats().hits, 1u);
}

TEST(PersistentCacheTest, GenerationMismatchIsAMiss) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("generation");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  ASSERT_TRUE((*cache)->Put(key, compiled));
  (*cache)->Flush();

  // Any catalog mutation bumps the generation; the disk entry is orphaned.
  corpus->store().WithWrite([](DescriptorStore&) { return 0; });
  MappingCacheKey newer = KeyFor(*corpus, 0, WorkstationProfile().name);
  ASSERT_NE(newer.store_generation, key.store_generation);
  auto hit = corpus->store().WithRead([&](const DescriptorStore& store) {
    return (*cache)->Get(newer, corpus->document(0).document, store);
  });
  EXPECT_EQ(hit, nullptr);
  EXPECT_EQ((*cache)->stats().misses, 1u);
  EXPECT_EQ((*cache)->stats().quarantined, 0u);
}

TEST(PersistentCacheTest, BitFlippedPayloadIsQuarantinedOnRead) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("bitflip");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    ASSERT_TRUE((*cache)->Put(key, compiled));
    (*cache)->Flush();
  }
  // Flip one payload byte of the single entry file.
  fs::path entry;
  for (const auto& file : fs::directory_iterator(fs::path(dir) / "entries")) {
    entry = file.path();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::fstream io(entry, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(-2, std::ios::end);
    char byte = 0;
    io.seekg(-2, std::ios::end);
    io.get(byte);
    io.seekp(-2, std::ios::end);
    io.put(static_cast<char>(byte ^ 0x40));
  }

  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  // The startup scan trusts the journaled size; the CRC fails on first read.
  auto hit = corpus->store().WithRead([&](const DescriptorStore& store) {
    return (*cache)->Get(key, corpus->document(0).document, store);
  });
  EXPECT_EQ(hit, nullptr);
  EXPECT_EQ((*cache)->stats().quarantined, 1u);
  EXPECT_EQ((*cache)->stats().entries, 0u);
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / entry.filename()));
  // Retry: the quarantined entry is gone from the index — a plain miss.
  hit = corpus->store().WithRead([&](const DescriptorStore& store) {
    return (*cache)->Get(key, corpus->document(0).document, store);
  });
  EXPECT_EQ(hit, nullptr);
  EXPECT_EQ((*cache)->stats().quarantined, 1u);
}

TEST(PersistentCacheTest, TruncatedEntryIsQuarantinedAtOpen) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("truncate");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    ASSERT_TRUE((*cache)->Put(key, compiled));
    (*cache)->Flush();
  }
  fs::path entry;
  for (const auto& file : fs::directory_iterator(fs::path(dir) / "entries")) {
    entry = file.path();
  }
  fs::resize_file(entry, fs::file_size(entry) / 2);

  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_EQ((*cache)->stats().quarantined, 1u);
  EXPECT_EQ((*cache)->stats().entries, 0u);
}

TEST(PersistentCacheTest, OrphanedEntryIsVerifiedAndAdopted) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("orphan");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    ASSERT_TRUE((*cache)->Put(key, compiled));
    (*cache)->Flush();
  }
  // Simulate a crash between rename and journal append.
  fs::remove(fs::path(dir) / "manifest.journal");

  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    EXPECT_EQ((*cache)->stats().orphans_adopted, 1u);
    EXPECT_EQ((*cache)->stats().entries, 1u);
    auto hit = corpus->store().WithRead([&](const DescriptorStore& store) {
      return (*cache)->Get(key, corpus->document(0).document, store);
    });
    EXPECT_NE(hit, nullptr);
  }
  // Adoption re-journaled the entry: the next Open trusts it again.
  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_EQ((*cache)->stats().orphans_adopted, 0u);
  EXPECT_EQ((*cache)->stats().entries, 1u);
}

TEST(PersistentCacheTest, TornJournalTailIsDropped) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("tornjournal");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    ASSERT_TRUE((*cache)->Put(key, compiled));
    (*cache)->Flush();
  }
  {
    std::ofstream journal(fs::path(dir) / "manifest.journal", std::ios::app | std::ios::binary);
    journal << "deadbeef commit torn-half-a-li";  // no newline: a torn append
  }
  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_GE((*cache)->stats().journal_torn, 1u);
  EXPECT_EQ((*cache)->stats().entries, 1u);  // the committed entry survives
  EXPECT_EQ((*cache)->stats().quarantined, 0u);
}

TEST(PersistentCacheTest, TmpLeftoversAreWipedAtOpen) {
  std::string dir = CacheDir("tmpwipe");
  fs::create_directories(fs::path(dir) / "tmp");
  { std::ofstream(fs::path(dir) / "tmp" / "half.cpe.tmp") << "torn"; }
  auto cache = PersistentCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));
}

TEST(PersistentCacheTest, FullQueueDropsWrites) {
  auto corpus = Corpus(1);
  std::string dir = CacheDir("queuefull");
  auto compiled = CompileFresh(*corpus, ServeRequest{});
  MappingCacheKey key = KeyFor(*corpus, 0, WorkstationProfile().name);
  PersistentCache::Options options;
  options.max_pending_writes = 0;
  auto cache = PersistentCache::Open(dir, options);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_FALSE((*cache)->Put(key, compiled));
  EXPECT_EQ((*cache)->stats().dropped_writes, 1u);
  EXPECT_EQ((*cache)->stats().writes, 0u);
}

TEST(PersistentCacheTest, ListVerifyPurge) {
  auto corpus = Corpus(2);
  std::string dir = CacheDir("tooling");
  {
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    for (std::size_t i = 0; i < 2; ++i) {
      auto compiled = CompileFresh(*corpus, ServeRequest{.document = i, .profile = 0});
      ASSERT_TRUE((*cache)->Put(KeyFor(*corpus, i, WorkstationProfile().name), compiled));
    }
    (*cache)->Flush();
  }
  auto listed = PersistentCache::List(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 2u);
  for (const PersistentCache::EntryInfo& info : *listed) {
    EXPECT_TRUE(info.journaled);
    EXPECT_GT(info.bytes, 0u);
    EXPECT_EQ(info.profile, WorkstationProfile().name);
  }
  auto verify = PersistentCache::Verify(dir);
  ASSERT_TRUE(verify.ok()) << verify.status();
  EXPECT_EQ(verify->checked, 2u);
  EXPECT_EQ(verify->ok, 2u);
  EXPECT_TRUE(verify->corrupt.empty());

  // Corrupt one file: Verify reports it, read-only.
  fs::path first;
  for (const auto& file : fs::directory_iterator(fs::path(dir) / "entries")) {
    first = file.path();
    break;
  }
  { std::ofstream(first, std::ios::app | std::ios::binary) << "x"; }
  verify = PersistentCache::Verify(dir);
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->ok, 1u);
  ASSERT_EQ(verify->corrupt.size(), 1u);
  EXPECT_TRUE(fs::exists(first));  // verify never moves files

  ASSERT_TRUE(PersistentCache::Purge(dir).ok());
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "entries"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest.journal"));
}

TEST(ServeLoopPcacheTest, DiskTierWarmsARestartedLoop) {
  auto corpus = Corpus(3);
  std::string dir = CacheDir("serveloop");
  ServeOptions options;
  options.threads = 1;
  options.cache_dir = dir;

  std::vector<std::uint64_t> hashes;
  {
    ServeLoop loop(*corpus, options);
    ASSERT_NE(loop.pcache(), nullptr) << loop.pcache_status();
    for (std::size_t i = 0; i < corpus->size(); ++i) {
      ServeResponse response = loop.Serve(ServeRequest{.document = i, .profile = 0});
      ASSERT_TRUE(response.served());
      EXPECT_FALSE(response.cache_hit);  // cold: every tier misses
      hashes.push_back(net::PresentationHash(*response.presentation, {}));
    }
    loop.pcache()->Flush();
    EXPECT_EQ(loop.pcache()->stats().writes, corpus->size());
  }

  // "Restart": a fresh loop over the same corpus and directory. The memory
  // cache is cold, so every hit below comes from disk.
  ServeLoop loop(*corpus, options);
  ASSERT_NE(loop.pcache(), nullptr) << loop.pcache_status();
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    ServeResponse response = loop.Serve(ServeRequest{.document = i, .profile = 0});
    ASSERT_TRUE(response.served());
    EXPECT_TRUE(response.cache_hit);
    EXPECT_TRUE(response.disk_hit);
    EXPECT_EQ(net::PresentationHash(*response.presentation, {}), hashes[i]);
    // Promotion: the same request again hits memory, not disk.
    ServeResponse again = loop.Serve(ServeRequest{.document = i, .profile = 0});
    EXPECT_TRUE(again.cache_hit);
    EXPECT_FALSE(again.disk_hit);
  }
  EXPECT_EQ(loop.pcache()->stats().hits, corpus->size());
}

}  // namespace
}  // namespace cmif
