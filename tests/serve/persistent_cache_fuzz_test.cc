// Format fuzzing for the persistent cache entry/manifest format: every
// truncation boundary, every header bit flip, and sampled payload bit flips
// must end in exactly one of two states — the entry is quarantined, or it is
// served byte-identical to the pristine compile. Never a crash, never a
// wrong presentation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "src/net/presentation_wire.h"
#include "src/serve/persistent_cache.h"
#include "src/serve/serve.h"

namespace cmif {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  std::unique_ptr<ServeCorpus> corpus;
  std::shared_ptr<const CompiledPresentation> compiled;
  std::uint64_t pristine_hash = 0;
  MappingCacheKey key;
  std::string file;   // entry file name for `key`
  std::string image;  // pristine on-disk entry bytes (header + payload)
  std::string journal;  // pristine manifest.journal bytes
};

Fixture BuildFixture(const std::string& dir) {
  Fixture fx;
  auto corpus = BuildNewsCorpus(1);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  fx.corpus = std::move(corpus).value();

  ServeOptions options;
  options.threads = 1;
  options.use_cache = false;
  ServeLoop loop(*fx.corpus, options);
  ServeResponse compiled = loop.Serve(ServeRequest{});
  EXPECT_TRUE(compiled.served()) << compiled.error;
  fx.compiled = std::move(compiled.presentation);
  fx.pristine_hash = net::PresentationHash(*fx.compiled, {});

  fx.key.document_hash = fx.corpus->document(0).document_hash;
  fx.key.channel_hash = fx.corpus->document(0).channel_hash;
  fx.key.profile = WorkstationProfile().name;
  fx.key.store_generation = fx.corpus->store().generation();
  fx.file = PersistentCacheFileName(fx.key);

  fs::remove_all(dir);
  auto cache = PersistentCache::Open(dir);
  EXPECT_TRUE(cache.ok()) << cache.status();
  EXPECT_TRUE((*cache)->Put(fx.key, fx.compiled));
  (*cache)->Flush();
  cache->reset();

  std::ifstream in(fs::path(dir) / "entries" / fx.file, std::ios::binary);
  fx.image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  EXPECT_FALSE(fx.image.empty());
  std::ifstream jin(fs::path(dir) / "manifest.journal", std::ios::binary);
  fx.journal.assign(std::istreambuf_iterator<char>(jin), std::istreambuf_iterator<char>());
  EXPECT_FALSE(fx.journal.empty());
  return fx;
}

void WriteBytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Opens the cache over one mutated entry image and checks the invariant:
// quarantined, or served with the pristine presentation hash. Returns true
// when the mutant was quarantined.
bool CheckMutant(const std::string& dir, Fixture& fx, std::string_view image,
                 bool with_journal, const std::string& what) {
  WriteBytes(fs::path(dir) / "entries" / fx.file, image);
  if (with_journal) {
    WriteBytes(fs::path(dir) / "manifest.journal", fx.journal);
  } else {
    fs::remove(fs::path(dir) / "manifest.journal");
  }
  auto cache = PersistentCache::Open(dir);
  EXPECT_TRUE(cache.ok()) << what << ": " << cache.status();
  if (!cache.ok()) {
    return false;
  }
  PersistentCache::Stats stats = (*cache)->stats();
  bool quarantined = stats.quarantined > 0;
  if (!quarantined) {
    // The mutant survived verification — it must serve the exact pristine
    // presentation (e.g. the mutation was in bytes nothing reads).
    auto hit = fx.corpus->store().WithRead([&](const DescriptorStore& store) {
      return (*cache)->Get(fx.key, fx.corpus->document(0).document, store);
    });
    stats = (*cache)->stats();
    if (hit != nullptr) {
      EXPECT_EQ(net::PresentationHash(*hit, {}), fx.pristine_hash)
          << what << ": corrupt entry served with a different presentation";
    } else {
      // The lazy read-time CRC caught it instead of the startup scan.
      EXPECT_GT(stats.quarantined, 0u) << what << ": miss without quarantine";
      quarantined = stats.quarantined > 0;
    }
  }
  // Reset for the next mutant: drop anything quarantined.
  cache->reset();
  std::error_code ec;
  fs::remove(fs::path(dir) / "quarantine" / fx.file, ec);
  fs::remove(fs::path(dir) / "entries" / fx.file, ec);
  return quarantined;
}

TEST(PersistentCacheFuzzTest, TruncationAtEveryByteBoundary) {
  std::string dir = (fs::path(::testing::TempDir()) / "pcache_fuzz_trunc").string();
  Fixture fx = BuildFixture(dir);
  // Every strict prefix, as an orphan (full verification path) — a torn
  // write that survived the rename but lost its journal record.
  std::size_t quarantined = 0;
  for (std::size_t len = 0; len < fx.image.size(); ++len) {
    quarantined += CheckMutant(dir, fx, std::string_view(fx.image).substr(0, len),
                               /*with_journal=*/false, "orphan truncated to " + std::to_string(len))
                       ? 1
                       : 0;
  }
  // A truncated entry can never reconstruct the presentation: all quarantined.
  EXPECT_EQ(quarantined, fx.image.size());
}

TEST(PersistentCacheFuzzTest, TruncationWithJournalRecord) {
  std::string dir = (fs::path(::testing::TempDir()) / "pcache_fuzz_trunc_j").string();
  Fixture fx = BuildFixture(dir);
  // The journal vouches for the full entry; the file on disk is shorter
  // (lost cache-flush). The cheap startup size check must catch every case.
  std::size_t quarantined = 0;
  for (std::size_t len = 0; len < fx.image.size(); ++len) {
    quarantined +=
        CheckMutant(dir, fx, std::string_view(fx.image).substr(0, len),
                    /*with_journal=*/true, "journaled truncated to " + std::to_string(len))
            ? 1
            : 0;
  }
  EXPECT_EQ(quarantined, fx.image.size());
}

TEST(PersistentCacheFuzzTest, EveryBitFlipOnHeader) {
  std::string dir = (fs::path(::testing::TempDir()) / "pcache_fuzz_hdr").string();
  Fixture fx = BuildFixture(dir);
  std::size_t header_end = fx.image.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  ++header_end;  // include the newline itself
  std::size_t quarantined = 0;
  for (std::size_t byte = 0; byte < header_end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = fx.image;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      quarantined += CheckMutant(dir, fx, mutant, /*with_journal=*/false,
                                 "header bit " + std::to_string(byte * 8 + bit))
                         ? 1
                         : 0;
    }
  }
  // Every header field is load-bearing (magic, version, key, size, CRC), so
  // every single-bit flip must be caught.
  EXPECT_EQ(quarantined, header_end * 8);
}

TEST(PersistentCacheFuzzTest, SampledPayloadBitFlips) {
  std::string dir = (fs::path(::testing::TempDir()) / "pcache_fuzz_payload").string();
  Fixture fx = BuildFixture(dir);
  std::size_t header_end = fx.image.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  ++header_end;
  // Every 13th bit of the payload: cheap enough to run always, dense enough
  // to cover every byte. The payload CRC catches each one.
  std::size_t quarantined = 0;
  std::size_t tried = 0;
  for (std::size_t bit = 0; bit < (fx.image.size() - header_end) * 8; bit += 13) {
    std::string mutant = fx.image;
    std::size_t byte = header_end + bit / 8;
    mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << (bit % 8)));
    quarantined += CheckMutant(dir, fx, mutant, /*with_journal=*/false,
                               "payload bit " + std::to_string(bit))
                       ? 1
                       : 0;
    ++tried;
  }
  EXPECT_EQ(quarantined, tried);
}

TEST(PersistentCacheFuzzTest, JournalLineBitFlipsNeverCrashOrMisindex) {
  std::string dir = (fs::path(::testing::TempDir()) / "pcache_fuzz_journal").string();
  Fixture fx = BuildFixture(dir);
  // Flip every bit of the (single-line) journal, keeping the entry file
  // pristine. Whatever the journal claims, the entry itself is intact: it is
  // either trusted (journal still parses and matches), or falls back to the
  // orphan path and is adopted. Either way it must serve correctly.
  for (std::size_t bit = 0; bit < fx.journal.size() * 8; ++bit) {
    std::string mutant = fx.journal;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    WriteBytes(fs::path(dir) / "entries" / fx.file, fx.image);
    WriteBytes(fs::path(dir) / "manifest.journal", mutant);
    auto cache = PersistentCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status();
    PersistentCache::Stats stats = (*cache)->stats();
    if (stats.entries == 1) {
      auto hit = fx.corpus->store().WithRead([&](const DescriptorStore& store) {
        return (*cache)->Get(fx.key, fx.corpus->document(0).document, store);
      });
      ASSERT_NE(hit, nullptr) << "journal bit " << bit;
      EXPECT_EQ(net::PresentationHash(*hit, {}), fx.pristine_hash) << "journal bit " << bit;
    } else {
      // A corrupt journal line that still CRC-parses but names our file with
      // the wrong size/CRC makes the startup check quarantine the (intact)
      // entry. That is within contract — conservative, never wrong — but it
      // must be the only other outcome.
      EXPECT_EQ(stats.quarantined, 1u) << "journal bit " << bit;
    }
    cache->reset();
    std::error_code ec;
    fs::remove(fs::path(dir) / "quarantine" / fx.file, ec);
    fs::remove(fs::path(dir) / "entries" / fx.file, ec);
  }
}

}  // namespace
}  // namespace cmif
