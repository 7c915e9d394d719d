// Figure 12 (beyond the paper) — serving and playback under injected faults.
// The robustness claim of the transportable-document architecture is that a
// presentation degrades before it dies: lost blocks become placeholders,
// slow devices shed their lowest-priority channel, failed compiles fall back
// to the freshest stale mapping — and through all of it the must-arc sync
// windows keep holding (freezes absorb what tolerance cannot).
//
// Three sections, all on the fixed chaos seed so runs replay exactly:
//   1. The Evening News serve trace under escalating StandardChaosPlan
//      levels: completion (healthy+recovered+degraded, never hung),
//      degradation ratio, throughput, p99.
//   2. Full-pipeline playback under device faults: placeholders, shed
//      channels, freezes — and zero sync-arc violations.
//   3. The persist read path under payload corruption: every mutation is
//      either detected (structured error with an offset) or harmless.
#include <benchmark/benchmark.h>

#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/ddbms/persist.h"
#include "src/fault/fault.h"
#include "src/news/evening_news.h"
#include "src/api/cmif.h"

namespace cmif {
namespace {

constexpr int kDocuments = 8;
constexpr std::size_t kRequests = 512;
constexpr std::uint64_t kChaosSeed = 42;
// The "standard" plan level the acceptance numbers are quoted at.
constexpr int kStandardLevel = 2;

ServeOptions ChaosServeOptions() {
  ServeOptions options;
  options.zipf_skew = 1.0;
  options.seed = 12;
  options.threads = 4;
  options.enable_degraded = true;
  options.retry.max_attempts = 4;
  options.retry.attempt_deadline_ms = 500;
  return options;
}

struct ServeChaosRow {
  int level = 0;
  double completed_pct = 0;  // healthy + recovered + degraded
  double degraded_pct = 0;
  double throughput_rps = 0;
  double p99_ms = 0;
  std::uint64_t injected = 0;
};

ServeChaosRow RunServeLevel(ServeCorpus& corpus, const std::vector<ServeRequest>& trace,
                            int level) {
  ServeChaosRow row;
  row.level = level;
  ServeOptions options = ChaosServeOptions();
  // Catalog churn: every 4th request bumps the store generation (an empty
  // write section), so cached mappings keep going stale and a steady stream
  // of requests compiles cold — through the injection sites — instead of
  // coasting on a fully warmed cache. Failed compiles then exercise the
  // stale-generation fallback.
  auto tick = std::make_shared<std::atomic<std::uint64_t>>(0);
  options.request_hook = [&corpus, tick](const ServeRequest&) {
    if (tick->fetch_add(1, std::memory_order_relaxed) % 4 == 0) {
      corpus.store().WithWrite([](DescriptorStore&) { return 0; });
    }
  };
  ServeLoop loop(corpus, options);
  // A warm server: one fault-free pass primes the mapping cache, so the
  // degraded path has stale entries to fall back on (the steady-state shape
  // of a news server that has been up longer than one request).
  auto prime = loop.Run(trace);
  if (!prime.ok() || prime->errors != 0) {
    std::cerr << "fig12: fault-free priming pass failed\n";
    std::abort();
  }
  // An empty write section bumps the store generation: every cached entry
  // turns stale, so the chaos pass compiles cold (through the injection
  // sites) and can only answer failures from the stale generation.
  corpus.store().WithWrite([](DescriptorStore&) { return 0; });
  fault::InjectionCounts counts;
  auto stats = [&] {
    fault::ScopedPlan chaos(fault::StandardChaosPlan(level, kChaosSeed));
    fault::ResetCounts();
    auto run = loop.Run(trace);
    counts = fault::Counts();  // before ~ScopedPlan resets the counters
    return run;
  }();
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    std::abort();
  }
  double n = static_cast<double>(stats->requests);
  row.completed_pct = 100.0 * static_cast<double>(stats->requests - stats->errors) / n;
  row.degraded_pct = 100.0 * static_cast<double>(stats->degraded) / n;
  row.throughput_rps = stats->throughput_rps;
  row.p99_ms = stats->p99_ms;
  row.injected = counts.transient + counts.latency + counts.stall + counts.corrupt;
  return row;
}

// Playback of the full broadcast under device faults, recovery ladder on.
void PlaybackSection(std::vector<std::pair<std::string, double>>& fields) {
  NewsOptions news;
  news.stories = 3;
  news.materialize_media = true;
  auto workload = BuildEveningNews(news);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    std::abort();
  }
  PipelineOptions options;
  options.profile = PersonalSystemProfile();
  options.apply_filters = true;
  options.enable_degradation = true;
  options.player.enable_degradation = true;
  auto report = [&] {
    fault::ScopedPlan chaos(fault::StandardChaosPlan(kStandardLevel, kChaosSeed));
    return api::Play(workload->document, workload->store, workload->blocks, options);
  }();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    std::abort();
  }
  const PlaybackResult& playback = report->playback;
  std::cout << "\n-- playback under device faults (level " << kStandardLevel << ") --\n"
            << "  presentations " << playback.trace.size() << ", degraded "
            << playback.degraded_events << ", suppressed " << playback.suppressed_events
            << ", dropped channels " << playback.dropped_channels.size() << ", freezes "
            << playback.trace.FreezeCount() << "\n"
            << "  placeholder blocks " << report->degradation.blocks_placeholder
            << ", recovered blocks " << report->degradation.blocks_recovered << "\n"
            << "  sync-arc violations " << playback.sync_violations
            << (playback.sync_violations == 0 ? "  [OK]" : "  [FAIL]") << "\n";
  fields.emplace_back("playback_presentations", static_cast<double>(playback.trace.size()));
  fields.emplace_back("playback_degraded", static_cast<double>(playback.degraded_events));
  fields.emplace_back("playback_freezes", static_cast<double>(playback.trace.FreezeCount()));
  fields.emplace_back("playback_dropped_channels",
                      static_cast<double>(playback.dropped_channels.size()));
  fields.emplace_back("placeholder_blocks",
                      static_cast<double>(report->degradation.blocks_placeholder));
  fields.emplace_back("sync_violations", static_cast<double>(playback.sync_violations));
}

// Catalog reads under payload corruption: count reads where the injected
// mutation was caught by the v2 header/CRC checks versus mutated reads that
// still parsed (flips landing in comments or whitespace are harmless).
void PersistSection(std::vector<std::pair<std::string, double>>& fields) {
  NewsOptions news;
  news.stories = 2;
  auto workload = BuildEveningNews(news);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    std::abort();
  }
  auto text = WriteCatalog(workload->store);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    std::abort();
  }
  constexpr int kReads = 400;
  int detected = 0;
  int parsed = 0;
  std::uint64_t injected = 0;
  {
    fault::FaultPlan plan;
    plan.seed = kChaosSeed;
    fault::FaultSiteConfig corrupt;
    corrupt.corrupt_p = 0.5;
    plan.sites.emplace_back("ddbms.persist.read", corrupt);
    fault::ScopedPlan chaos(std::move(plan));
    fault::ResetCounts();
    for (int i = 0; i < kReads; ++i) {
      auto read = ReadCatalog(*text);
      if (read.ok()) {
        ++parsed;
      } else {
        ++detected;
      }
    }
    injected = fault::Counts().corrupt;  // before ~ScopedPlan resets counters
  }
  std::cout << "\n-- persist reads under corruption --\n"
            << "  " << kReads << " reads, " << injected << " corrupted, " << detected
            << " detected with structured errors, " << parsed << " parsed clean\n";
  fields.emplace_back("persist_reads", kReads);
  fields.emplace_back("persist_corrupted", static_cast<double>(injected));
  fields.emplace_back("persist_detected", detected);
}

void PrintFigure(const std::string& bench_json) {
  auto corpus = BuildNewsCorpus(kDocuments);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    std::abort();
  }
  ServeOptions trace_options = ChaosServeOptions();
  std::vector<ServeRequest> trace = GenerateTrace(kDocuments, kRequests, trace_options);

  std::cout << "==== Figure 12: chaos — serving and playback under injected faults ====\n";
  std::cout << "corpus " << kDocuments << " documents, trace " << kRequests
            << " requests, chaos seed " << kChaosSeed << "\n\n";

  std::vector<std::pair<std::string, double>> fields;
  double standard_completed = 0;
  double standard_degraded = 0;
  for (int level : {0, 1, 2, 3}) {
    ServeChaosRow row = RunServeLevel(**corpus, trace, level);
    std::cout << "  level " << level << ":  completed " << row.completed_pct << "%  degraded "
              << row.degraded_pct << "%  " << row.throughput_rps << " req/s  p99 " << row.p99_ms
              << " ms  (" << row.injected << " faults injected)\n";
    std::string suffix = std::to_string(level);
    fields.emplace_back("completed_pct_l" + suffix, row.completed_pct);
    fields.emplace_back("degraded_pct_l" + suffix, row.degraded_pct);
    fields.emplace_back("throughput_rps_l" + suffix, row.throughput_rps);
    fields.emplace_back("p99_ms_l" + suffix, row.p99_ms);
    if (level == kStandardLevel) {
      standard_completed = row.completed_pct;
      standard_degraded = row.degraded_pct;
    }
  }
  std::cout << "\n  standard plan (level " << kStandardLevel << "): " << standard_completed
            << "% completed (" << standard_degraded << "% degraded)"
            << (standard_completed >= 99.0 ? "  [OK >= 99%]" : "  [FAIL < 99%]") << "\n";

  PlaybackSection(fields);
  PersistSection(fields);

  bench::AppendBenchJson(bench_json, "fig12_chaos", fields);
}

// The zero-overhead contract: the serve hot path with no plan installed is
// one relaxed atomic load away from a -DCMIF_FAULT=OFF build.
void BM_ServeWarmNoPlan(benchmark::State& state) {
  static ServeCorpus* const kCorpus = [] {
    auto corpus = BuildNewsCorpus(2);
    if (!corpus.ok()) {
      std::abort();
    }
    return corpus->release();
  }();
  static ServeLoop* const kLoop = [] {
    auto* loop = new ServeLoop(*kCorpus, ChaosServeOptions());
    if (!loop->Serve(ServeRequest{}).served()) {
      std::abort();
    }
    return loop;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kLoop->Serve(ServeRequest{}));
  }
}
BENCHMARK(BM_ServeWarmNoPlan);

void BM_ServeColdUnderChaos(benchmark::State& state) {
  static ServeCorpus* const kCorpus = [] {
    auto corpus = BuildNewsCorpus(2);
    if (!corpus.ok()) {
      std::abort();
    }
    return corpus->release();
  }();
  ServeOptions options = ChaosServeOptions();
  options.use_cache = false;
  ServeLoop loop(*kCorpus, options);
  fault::ScopedPlan chaos(fault::StandardChaosPlan(kStandardLevel, kChaosSeed));
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.Serve(ServeRequest{}));
  }
}
BENCHMARK(BM_ServeColdUnderChaos);

}  // namespace
}  // namespace cmif

int main(int argc, char** argv) {
  std::string bench_json = cmif::bench::ExtractBenchJsonPath(&argc, argv);
  cmif::PrintFigure(bench_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
