// Figure 16 (beyond the paper) — warm restart from the persistent
// compiled-presentation cache. A server that comes back after a crash or
// deploy should not pay the compile pipeline again for documents it already
// served: the disk tier (PR 8) replays committed entries through a verified
// read path, each first touch promoting into the memory tier. The figure
// replays the fig11 Zipf trace against a *freshly constructed* ServeLoop:
//
//   cold_rps           — no cache tiers, every request a full compile;
//   warm_restart_rps   — fresh process over a populated cache directory:
//                        first touch per document is a verified disk hit,
//                        the rest are memory hits, zero compiles;
//   restart_speedup    — warm/cold, gated absolutely in CI (>= 10x, see
//                        tools/check_bench.py --min-restart-speedup).
//
// Plus the cost of coming back: open_recovery_ms is the journal replay
// inside PersistentCache::Open on a populated directory, and
// crash_recovery_ms the same with the journal deleted — every entry an
// orphan, re-verified end to end before adoption, the worst-case restart a
// kill-9 can produce (tools/crash_harness.cc drives that path for real).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/api/cmif.h"

namespace cmif {
namespace {

namespace fs = std::filesystem;

constexpr int kDocuments = 8;
constexpr std::size_t kRequests = 512;

ServeOptions BaseOptions() {
  ServeOptions options;
  options.threads = 1;
  options.zipf_skew = 1.0;
  options.seed = 16;
  return options;
}

fs::path CacheDir() { return fs::temp_directory_path() / "cmif_fig16_pcache"; }

ServeStats MustRun(ServeLoop& loop, const std::vector<ServeRequest>& trace) {
  auto stats = loop.Run(trace);
  if (!stats.ok()) {
    std::cerr << "fig16: " << stats.status() << "\n";
    std::abort();
  }
  return *stats;
}

void PrintFigure(const std::string& bench_json) {
  auto corpus = api::BuildNewsCorpus(kDocuments);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    std::abort();
  }
  ServeOptions trace_options = BaseOptions();
  std::vector<ServeRequest> trace = GenerateTrace(kDocuments, kRequests, trace_options);
  std::set<std::pair<std::size_t, std::size_t>> distinct;  // (document, profile)
  for (const ServeRequest& request : trace) {
    distinct.emplace(request.document, request.profile);
  }
  const fs::path dir = CacheDir();
  fs::remove_all(dir);

  std::cout << "==== Figure 16: warm restart from the persistent cache ====\n";
  std::cout << "corpus " << kDocuments << " documents, trace " << kRequests
            << " requests (" << distinct.size() << " distinct), Zipf(1.0), 1 thread\n\n";

  // Cold: no cache tier at all — every request is a full compile. Best of 3.
  double cold_rps = 0;
  for (int i = 0; i < 3; ++i) {
    ServeOptions options = BaseOptions();
    options.use_cache = false;
    ServeLoop loop(**corpus, options);
    cold_rps = std::max(cold_rps, MustRun(loop, trace).throughput_rps);
  }

  // Fill the disk tier once and make it durable.
  {
    ServeOptions options = BaseOptions();
    options.cache_dir = dir.string();
    ServeLoop loop(**corpus, options);
    if (loop.pcache() == nullptr) {
      std::cerr << "fig16: " << loop.pcache_status() << "\n";
      std::abort();
    }
    MustRun(loop, trace);
    loop.pcache()->Flush();
  }

  // Warm restart: a fresh ServeLoop — empty memory tier, cold process — over
  // the populated directory. Open replays the journal; the first touch of
  // every document is a verified disk hit, nothing recompiles.
  double warm_rps = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t entries = 0;
  for (int i = 0; i < 3; ++i) {
    ServeOptions options = BaseOptions();
    options.cache_dir = dir.string();
    ServeLoop loop(**corpus, options);
    if (loop.pcache() == nullptr) {
      std::cerr << "fig16: reopen: " << loop.pcache_status() << "\n";
      std::abort();
    }
    // A disk hit is still a memory-tier miss (it promotes); zero compiles
    // means every memory miss was absorbed by the disk tier, one per
    // distinct (document, profile) key in the trace.
    ServeStats run = MustRun(loop, trace);
    if (run.cache_misses != run.pcache_hits || run.pcache_hits != distinct.size()) {
      std::cerr << "fig16: restart run compiled (" << run.cache_misses << " misses, "
                << run.pcache_hits << " disk hits, expected " << distinct.size() << "/"
                << distinct.size() << ")\n";
      std::abort();
    }
    PersistentCache::Stats stats = loop.pcache()->stats();
    warm_rps = std::max(warm_rps, run.throughput_rps);
    disk_bytes = stats.disk_bytes;
    entries = stats.entries;
  }

  // Recovery costs inside PersistentCache::Open, min of 5 (sub-millisecond
  // single samples jitter too much for the relative bench gate). Journal
  // replay is the every-restart cost; deleting the journal first forces the
  // crash-flavored worst case — every entry an orphan, re-verified end to
  // end before adoption. Each crash-flavor Open rewrites the journal
  // (compaction), so it is re-deleted per iteration.
  double recovery_ms = 0;
  double crash_recovery_ms = 0;
  for (int i = 0; i < 5; ++i) {
    auto reopened = PersistentCache::Open(dir.string());
    if (!reopened.ok() || (*reopened)->stats().entries != entries) {
      std::cerr << "fig16: journal replay lost entries\n";
      std::abort();
    }
    double ms = (*reopened)->stats().open_recovery_ms;
    recovery_ms = i == 0 ? ms : std::min(recovery_ms, ms);
  }
  for (int i = 0; i < 5; ++i) {
    std::error_code ec;
    fs::remove(dir / "manifest.journal", ec);
    auto reopened = PersistentCache::Open(dir.string());
    if (!reopened.ok() || (*reopened)->stats().entries != entries ||
        (*reopened)->stats().orphans_adopted != entries) {
      std::cerr << "fig16: orphan recovery lost entries\n";
      std::abort();
    }
    double ms = (*reopened)->stats().open_recovery_ms;
    crash_recovery_ms = i == 0 ? ms : std::min(crash_recovery_ms, ms);
  }

  double speedup = cold_rps > 0 ? warm_rps / cold_rps : 0;
  std::cout << "  cold compile:        " << cold_rps << " req/s\n"
            << "  warm restart (disk): " << warm_rps << " req/s\n"
            << "  restart speedup:     x" << speedup << "\n"
            << "  disk tier:           " << entries << " entries, " << disk_bytes << " bytes\n"
            << "  open recovery:       " << recovery_ms << " ms (journal replay)\n"
            << "  crash recovery:      " << crash_recovery_ms
            << " ms (no journal, full orphan verification)\n";

  bench::AppendBenchJson(bench_json, "fig16_restart",
                         {{"cold_rps", cold_rps},
                          {"warm_restart_rps", warm_rps},
                          {"restart_speedup", speedup},
                          {"disk_entries", static_cast<double>(entries)},
                          {"disk_bytes", static_cast<double>(disk_bytes)},
                          {"open_recovery_ms", recovery_ms},
                          {"crash_recovery_ms", crash_recovery_ms}});
}

// Micro contrasts under google-benchmark: one request through the compile
// pipeline vs one verified read from the disk tier. The disk read is NOT
// free — it re-derives the event list from the document and cross-checks
// every persisted event (the corruption contract) — which is exactly why
// the figure's restart speedup comes from promotion into the memory tier,
// not from the disk path alone.
void BM_ColdCompile(benchmark::State& state) {
  auto corpus = api::BuildNewsCorpus(2);
  if (!corpus.ok()) {
    std::abort();
  }
  ServeOptions options = BaseOptions();
  options.use_cache = false;
  ServeLoop loop(**corpus, options);
  ServeRequest request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.Serve(request));
  }
}
BENCHMARK(BM_ColdCompile);

void BM_DiskTierGet(benchmark::State& state) {
  auto corpus = api::BuildNewsCorpus(2);
  if (!corpus.ok()) {
    std::abort();
  }
  const fs::path dir = fs::temp_directory_path() / "cmif_fig16_bm_pcache";
  fs::remove_all(dir);
  ServeOptions fill = BaseOptions();
  fill.cache_dir = dir.string();
  {
    ServeLoop loop(**corpus, fill);
    if (loop.pcache() == nullptr || !loop.Serve(ServeRequest{}).served()) {
      std::abort();
    }
    loop.pcache()->Flush();
  }
  auto pcache = PersistentCache::Open(dir.string());
  if (!pcache.ok()) {
    std::abort();
  }
  MappingCacheKey key;
  key.document_hash = (*corpus)->document(0).document_hash;
  key.channel_hash = (*corpus)->document(0).channel_hash;
  key.profile = WorkstationProfile().name;
  key.store_generation = (*corpus)->store().generation();
  for (auto _ : state) {
    auto hit = (*corpus)->store().WithRead([&](const DescriptorStore& store) {
      return (*pcache)->Get(key, (*corpus)->document(0).document, store);
    });
    if (hit == nullptr) {
      std::abort();
    }
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_DiskTierGet);

}  // namespace
}  // namespace cmif

int main(int argc, char** argv) {
  std::string bench_json = cmif::bench::ExtractBenchJsonPath(&argc, argv);
  cmif::PrintFigure(bench_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
