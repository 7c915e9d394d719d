// Figure 11 (beyond the paper) — the concurrent document-serving layer. A
// corpus of Evening News variants is served from one shared ddbms instance
// by a thread pool of pipeline workers under a Zipf(1.0) request trace, the
// multi-client shape of Feustel & Schmidt's streaming server. Two contrasts:
// thread scaling on the cold-cache path (every request compiles), and the
// cold -> warm speedup from the compiled-presentation cache (the
// Madeus/LimSee export-architecture argument). Thread scaling is bounded by
// the cores of the machine — the emitted hw_threads field records that
// context next to the numbers.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/thread_pool.h"
#include "src/api/cmif.h"

namespace cmif {
namespace {

constexpr int kDocuments = 8;
constexpr std::size_t kRequests = 256;

ServeOptions BaseOptions() {
  ServeOptions options;
  options.zipf_skew = 1.0;
  options.seed = 11;
  return options;
}

// Best-of-N throughput (requests/s) for one configuration. Cold = cache
// disabled, every request runs the compile pipeline; warm = cache enabled
// and primed with one full pass, every request hits.
double BestThroughput(ServeCorpus& corpus, const std::vector<ServeRequest>& trace, int threads,
                      bool warm, int repeats = 3) {
  double best = 0;
  for (int i = 0; i < repeats; ++i) {
    ServeOptions options = BaseOptions();
    options.threads = threads;
    options.use_cache = warm;
    ServeLoop loop(corpus, options);
    if (warm) {
      auto prime = loop.Run(trace);
      if (!prime.ok()) {
        std::cerr << prime.status() << "\n";
        std::abort();
      }
    }
    auto stats = loop.Run(trace);
    if (!stats.ok()) {
      std::cerr << stats.status() << "\n";
      std::abort();
    }
    if (warm && stats->cache_misses != 0) {
      std::cerr << "warm run unexpectedly missed\n";
      std::abort();
    }
    best = std::max(best, stats->throughput_rps);
  }
  return best;
}

void PrintFigure(const std::string& bench_json) {
  auto corpus = BuildNewsCorpus(kDocuments);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    std::abort();
  }
  ServeOptions trace_options = BaseOptions();
  std::vector<ServeRequest> trace = GenerateTrace(kDocuments, kRequests, trace_options);

  std::cout << "==== Figure 11: concurrent serving, thread scaling and mapping cache ====\n";
  std::cout << "corpus " << kDocuments << " documents, trace " << kRequests
            << " requests, Zipf(1.0), hardware threads " << ThreadPool::HardwareThreads() << "\n\n";

  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("hw_threads", ThreadPool::HardwareThreads());
  double cold_1 = 0;
  double warm_1 = 0;
  for (int threads : {1, 2, 4, 8}) {
    double cold = BestThroughput(**corpus, trace, threads, /*warm=*/false);
    double warm = BestThroughput(**corpus, trace, threads, /*warm=*/true);
    if (threads == 1) {
      cold_1 = cold;
      warm_1 = warm;
    }
    std::cout << "  threads " << threads << ":  cold " << cold << " req/s";
    if (cold_1 > 0) {
      std::cout << " (x" << cold / cold_1 << ")";
    }
    std::cout << "   warm " << warm << " req/s (cold->warm x" << (cold > 0 ? warm / cold : 0)
              << ")\n";
    std::string suffix = std::to_string(threads);
    fields.emplace_back("cold_rps_" + suffix, cold);
    fields.emplace_back("warm_rps_" + suffix, warm);
  }
  double cold_8 = fields.back().second;  // placeholder, replaced below
  for (const auto& [key, value] : fields) {
    if (key == "cold_rps_8") {
      cold_8 = value;
    }
  }
  double scaling = cold_1 > 0 ? cold_8 / cold_1 : 0;
  double cache_speedup = cold_1 > 0 ? warm_1 / cold_1 : 0;
  fields.emplace_back("cold_scaling_8v1", scaling);
  fields.emplace_back("warm_over_cold_1t", cache_speedup);
  std::cout << "\n  cold-path scaling 8v1: x" << scaling << " (hardware threads "
            << ThreadPool::HardwareThreads() << ")\n"
            << "  cache speedup (1 thread, cold->warm): x" << cache_speedup << "\n";

  bench::AppendBenchJson(bench_json, "fig11_serve", fields);
}

void BM_ServeColdCompile(benchmark::State& state) {
  auto corpus = BuildNewsCorpus(2);
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
BENCHMARK(BM_ServeColdCompile);

void BM_ServeWarmHit(benchmark::State& state) {
  auto corpus = BuildNewsCorpus(2);
  if (!corpus.ok()) {
    std::abort();
  }
  ServeLoop loop(**corpus, BaseOptions());
  ServeRequest request;
  if (!loop.Serve(request).served()) {
    std::abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.Serve(request));
  }
}
BENCHMARK(BM_ServeWarmHit);

void BM_SharedStoreReadContention(benchmark::State& state) {
  static ServeCorpus* const kCorpus = [] {
    auto corpus = BuildNewsCorpus(2);
    if (!corpus.ok()) {
      std::abort();
    }
    return corpus->release();
  }();
  Query query = Query::Eq("medium", AttrValue::Id("video"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCorpus->store().ExecuteCopy(query));
  }
}
BENCHMARK(BM_SharedStoreReadContention)->Threads(1)->Threads(4);

}  // namespace
}  // namespace cmif

int main(int argc, char** argv) {
  std::string bench_json = cmif::bench::ExtractBenchJsonPath(&argc, argv);
  cmif::PrintFigure(bench_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
