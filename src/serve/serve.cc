#include "src/serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/base/string_util.h"
#include "src/base/thread_pool.h"
#include "src/fault/fault.h"
#include "src/fmt/writer.h"
#include "src/news/evening_news.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/pipeline/pipeline.h"

namespace cmif {
namespace {

std::uint64_t HashChannels(const ChannelDictionary& channels) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const ChannelDef& channel : channels.channels()) {
    hash = Fnv1a64Combine(hash, Fnv1a64(channel.name));
    hash = Fnv1a64Combine(hash, static_cast<std::uint64_t>(channel.medium));
  }
  return hash;
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

Status ServeCorpus::AddDocument(std::string name, Document document,
                                const DescriptorStore& catalog, const BlockStore& blocks) {
  auto entry = std::make_unique<ServeDocument>();
  entry->name = std::move(name);
  entry->document = std::move(document);
  CMIF_ASSIGN_OR_RETURN(std::string text, WriteDocument(entry->document));
  // The cached schedules hold node pointers into the registered document, so
  // the key hashes document *identity* (content + corpus slot), never letting
  // two corpus entries with identical text share a compiled entry.
  entry->document_hash = Fnv1a64Combine(Fnv1a64(text), documents_.size());
  entry->channel_hash = HashChannels(entry->document.channels());
  store_.WithWrite([&](DescriptorStore& store) {
    for (const DataDescriptor& descriptor : catalog.descriptors()) {
      store.Upsert(descriptor);
    }
    return 0;
  });
  blocks_.WithWrite([&](BlockStore& store) {
    blocks.ForEach([&](const std::string& key, const DataBlock& block) { store.Set(key, block); });
    return 0;
  });
  documents_.push_back(std::move(entry));
  return Status::Ok();
}

Status ServeCorpus::UpdateDocument(std::size_t index, Document document) {
  if (index >= documents_.size()) {
    return OutOfRangeError(StrFormat("no corpus document #%zu", index));
  }
  ServeDocument& entry = *documents_[index];
  CMIF_ASSIGN_OR_RETURN(std::string text, WriteDocument(document));
  entry.document = std::move(document);
  entry.document_hash = Fnv1a64Combine(Fnv1a64(text), index);
  entry.channel_hash = HashChannels(entry.document.channels());
  // Cached schedules hold Node pointers into the tree just replaced; the
  // rehash makes those entries unreachable by key, and this (otherwise
  // empty) write section bumps the store generation so even stale-tolerant
  // readers see the slot as changed.
  store_.WithWrite([](DescriptorStore&) { return 0; });
  return Status::Ok();
}

StatusOr<std::unique_ptr<ServeCorpus>> BuildNewsCorpus(int documents, int max_stories,
                                                       std::uint64_t seed) {
  if (documents < 1 || max_stories < 1) {
    return InvalidArgumentError("corpus needs at least one document and one story");
  }
  auto corpus = std::make_unique<ServeCorpus>();
  for (int i = 0; i < documents; ++i) {
    NewsOptions options;
    options.stories = i % max_stories + 1;
    options.seed = seed;  // shared seed => shared story prefixes merge cleanly
    CMIF_ASSIGN_OR_RETURN(NewsWorkload workload, BuildEveningNews(options));
    CMIF_RETURN_IF_ERROR(corpus->AddDocument(StrFormat("news-%d-s%d", i, options.stories),
                                             std::move(workload.document), workload.store,
                                             workload.blocks));
  }
  return corpus;
}

std::vector<ServeRequest> GenerateTrace(std::size_t corpus_size, std::size_t requests,
                                        const ServeOptions& options) {
  std::vector<ServeRequest> trace;
  if (corpus_size == 0 || options.profiles.empty()) {
    return trace;
  }
  trace.reserve(requests);
  Rng rng(options.seed);
  ZipfDistribution popularity(corpus_size, options.zipf_skew);
  for (std::size_t i = 0; i < requests; ++i) {
    ServeRequest request;
    request.document = popularity.Sample(rng);
    request.profile = static_cast<std::size_t>(rng.NextBelow(options.profiles.size()));
    trace.push_back(request);
  }
  return trace;
}

std::string_view ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kHealthy:
      return "healthy";
    case ServeOutcome::kRecovered:
      return "recovered";
    case ServeOutcome::kDegraded:
      return "degraded";
    case ServeOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string ServeStats::Summary() const {
  std::string out;
  out += StrFormat("  requests %zu (%zu errors), wall %.3f ms, %.1f req/s\n", requests, errors,
                   wall_ms, throughput_rps);
  if (degraded > 0 || recovered > 0 || exceptions > 0 || breaker_opens > 0) {
    out += StrFormat(
        "  recovery: %zu degraded, %zu recovered, %zu exceptions, %llu breaker opens\n", degraded,
        recovered, exceptions, static_cast<unsigned long long>(breaker_opens));
  }
  out += StrFormat("  latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n", p50_ms, p95_ms, p99_ms);
  std::uint64_t lookups = cache_hits + cache_misses;
  double hit_pct = lookups > 0 ? 100.0 * static_cast<double>(cache_hits) / lookups : 0;
  out += StrFormat("  cache %llu hits / %llu misses (%.1f%% hit rate)\n",
                   static_cast<unsigned long long>(cache_hits),
                   static_cast<unsigned long long>(cache_misses), hit_pct);
  if (pcache_hits > 0) {
    out += StrFormat("  disk cache %llu hits\n", static_cast<unsigned long long>(pcache_hits));
  }
  return out;
}

ServeLoop::ServeLoop(ServeCorpus& corpus, ServeOptions options)
    : corpus_(corpus),
      options_(std::move(options)),
      cache_(options_.cache_capacity),
      breakers_(options_.compile_breaker) {
  if (!options_.cache_dir.empty()) {
    StatusOr<std::unique_ptr<PersistentCache>> opened = PersistentCache::Open(options_.cache_dir);
    if (opened.ok()) {
      pcache_ = std::move(*opened);
    } else {
      // Serving works memory-only; the disk tier is an accelerator, never a
      // dependency. The reason stays queryable via pcache_status().
      pcache_status_ = opened.status();
      CMIF_LOG(kWarning) << "persistent cache disabled: " << pcache_status_.message();
    }
  }
}

ServeResponse ServeLoop::Serve(const ServeRequest& request) {
  ServeResponse response;
  if (request.document >= corpus_.size() || request.profile >= options_.profiles.size()) {
    response.outcome = ServeOutcome::kFailed;
    response.error = InvalidArgumentError("serve request outside corpus/profile range");
    return response;
  }
  const ServeDocument& doc = corpus_.document(request.document);
  const SystemProfile& profile = options_.profiles[request.profile];
  obs::Span span("serve-request");
  span.Annotate("document", doc.name);
  span.Annotate("profile", profile.name);
  if (obs::Enabled()) {
    static obs::Counter& requests = obs::GetCounter("serve.requests");
    requests.Add();
  }

  MappingCacheKey key;
  key.document_hash = doc.document_hash;
  key.channel_hash = doc.channel_hash;
  key.profile = profile.name;
  if (options_.use_cache) {
    key.store_generation = corpus_.store().generation();
    if (std::shared_ptr<const CompiledPresentation> hit = cache_.Get(key)) {
      span.Annotate("cache", "hit");
      response.presentation = std::move(hit);
      response.cache_hit = true;
      return response;
    }
  }
  // Memory miss: fall through to the disk tier before paying for a compile.
  // The read lock pins the catalog state, and the generation re-read under it
  // names that state exactly — the same discipline as the compile path — so
  // a reconstructed entry can never alias a newer catalog. A disk hit skips
  // the breaker gate: it runs no pipeline, so there is nothing to protect.
  if (options_.use_cache && pcache_ != nullptr) {
    std::shared_ptr<const CompiledPresentation> disk = corpus_.store().WithRead(
        [&](const DescriptorStore& store) -> std::shared_ptr<const CompiledPresentation> {
          key.store_generation = corpus_.store().generation();
          return pcache_->Get(key, doc.document, store);
        });
    if (disk != nullptr) {
      cache_.Put(key, disk);  // promote: the next lookup is a memory hit
      span.Annotate("cache", "disk-hit");
      response.presentation = std::move(disk);
      response.cache_hit = true;
      response.disk_hit = true;
      return response;
    }
  }
  span.Annotate("cache", options_.use_cache ? "miss" : "off");

  // Degraded fallback, shared between the fail-fast and compile-failed
  // paths: the freshest stale cache entry for this (document, profile).
  auto degrade = [&](Status error) {
    response.error = std::move(error);
    if (options_.enable_degraded && options_.use_cache) {
      if (std::shared_ptr<const CompiledPresentation> stale = cache_.GetStale(key)) {
        response.presentation = std::move(stale);
        response.outcome = ServeOutcome::kDegraded;
        span.Annotate("outcome", "degraded");
        if (obs::Enabled()) {
          static obs::Counter& degraded = obs::GetCounter("serve.degraded.requests");
          degraded.Add();
        }
        obs::RecordAnomaly("serve.degraded");
        return;
      }
    }
    response.outcome = ServeOutcome::kFailed;
    span.Annotate("outcome", "failed");
    if (obs::Enabled()) {
      static obs::Counter& failed = obs::GetCounter("serve.failed.requests");
      failed.Add();
    }
    obs::RecordAnomaly("serve.failed");
  };

  // Fail fast while this document's breaker is open: don't burn a pipeline
  // run (and its retries) on a document that is currently hopeless.
  fault::CircuitBreaker& breaker = breakers_.For(doc.name);
  if (!breaker.Allow()) {
    degrade(UnavailableError("compile breaker open for document '" + doc.name + "'"));
    return response;
  }

  // Cold path: compile under the shared stores' read locks, retrying
  // transient (kUnavailable) failures. The generation is re-read inside the
  // lock — writers bump it before releasing, so the value observed here
  // exactly identifies the catalog state the compile ran against, and the
  // entry can never alias a newer catalog.
  auto compile_once = [&]() -> StatusOr<std::shared_ptr<const CompiledPresentation>> {
    if (fault::Enabled()) {
      CMIF_RETURN_IF_ERROR(fault::InjectPoint("serve.compile"));
    }
    return corpus_.store().WithRead(
        [&](const DescriptorStore& store) -> StatusOr<std::shared_ptr<const CompiledPresentation>> {
          key.store_generation = corpus_.store().generation();
          return corpus_.blocks().WithRead(
              [&](const BlockStore& blocks) -> StatusOr<std::shared_ptr<const CompiledPresentation>> {
                PipelineOptions pipeline_options;
                pipeline_options.profile = profile;
                CMIF_ASSIGN_OR_RETURN(
                    CompileReport report,
                    CompilePresentation(doc.document, store, blocks, pipeline_options));
                auto result = std::make_shared<CompiledPresentation>();
                result->map = std::move(report.presentation_map);
                result->filter = std::move(report.filter);
                result->schedule = std::move(report.schedule);
                return std::shared_ptr<const CompiledPresentation>(std::move(result));
              });
        });
  };
  std::uint64_t salt = Fnv1a64Combine(doc.document_hash, Fnv1a64(profile.name));
  auto compiled = fault::Retry(options_.retry, compile_once, salt, &response.attempts);
  if (!compiled.ok()) {
    breaker.RecordFailure();
    degrade(compiled.status());
    return response;
  }
  breaker.RecordSuccess();
  if (response.attempts > 1) {
    response.outcome = ServeOutcome::kRecovered;
    span.Annotate("outcome", "recovered");
    span.Annotate("attempts", response.attempts);
    if (obs::Enabled()) {
      static obs::Counter& recovered = obs::GetCounter("serve.recovered.requests");
      recovered.Add();
    }
  }
  // Only fresh compiles are cached — a degraded (stale) response never
  // re-enters the cache under the current generation's key.
  if (options_.use_cache) {
    cache_.Put(key, *compiled);
    if (pcache_ != nullptr) {
      pcache_->Put(key, *compiled);  // write-behind; drops are counted
    }
  }
  response.presentation = *compiled;
  return response;
}

ServeResponse ServeLoop::ServeStale(const ServeRequest& request, Status reason) {
  ServeResponse response;
  if (request.document >= corpus_.size() || request.profile >= options_.profiles.size()) {
    response.outcome = ServeOutcome::kFailed;
    response.error = InvalidArgumentError("serve request outside corpus/profile range");
    return response;
  }
  const ServeDocument& doc = corpus_.document(request.document);
  const SystemProfile& profile = options_.profiles[request.profile];
  MappingCacheKey key;
  key.document_hash = doc.document_hash;
  key.channel_hash = doc.channel_hash;
  key.profile = profile.name;
  key.store_generation = corpus_.store().generation();
  if (options_.use_cache) {
    if (std::shared_ptr<const CompiledPresentation> hit = cache_.Get(key)) {
      response.presentation = std::move(hit);
      response.cache_hit = true;
      return response;  // kHealthy: the cache was fresh, nothing degraded
    }
    if (std::shared_ptr<const CompiledPresentation> stale = cache_.GetStale(key)) {
      response.presentation = std::move(stale);
      response.outcome = ServeOutcome::kDegraded;
      response.error = std::move(reason);
      if (obs::Enabled()) {
        static obs::Counter& degraded = obs::GetCounter("serve.degraded.requests");
        degraded.Add();
      }
      obs::RecordAnomaly("serve.degraded");
      return response;
    }
  }
  response.outcome = ServeOutcome::kFailed;
  response.error = std::move(reason);
  return response;
}

StatusOr<std::shared_ptr<const StreamPlan>> ServeLoop::StreamPlanFor(
    const ServeRequest& request, const CompiledPresentation& presentation,
    const std::vector<std::string>& channels) {
  if (request.document >= corpus_.size() || request.profile >= options_.profiles.size()) {
    return InvalidArgumentError("stream plan request outside corpus/profile range");
  }
  const ServeDocument& doc = corpus_.document(request.document);
  const SystemProfile& profile = options_.profiles[request.profile];
  const bool memoizable = options_.use_cache && channels.empty();
  using PlanOr = StatusOr<std::shared_ptr<const StreamPlan>>;
  return corpus_.store().WithRead([&](const DescriptorStore& store) -> PlanOr {
    return corpus_.blocks().WithRead([&](const BlockStore& blocks) -> PlanOr {
      // Both generations are read under their read locks, so they name
      // exactly the catalog state a build here reads (the compile path's
      // discipline).
      MappingCacheKey key;
      key.document_hash = doc.document_hash;
      key.channel_hash = doc.channel_hash;
      key.store_generation = corpus_.store().generation();
      key.profile = profile.name;
      const std::uint64_t block_generation = corpus_.blocks().generation();
      if (memoizable) {
        if (std::shared_ptr<const StreamPlan> plan =
                cache_.GetPlan(key, presentation, block_generation)) {
          return plan;
        }
      }
      CMIF_ASSIGN_OR_RETURN(StreamPlan built,
                            BuildStreamPlan(presentation, store, blocks, profile, channels));
      auto plan = std::make_shared<const StreamPlan>(std::move(built));
      // A degraded plan carries placeholders for blocks that failed to
      // load; it answers this request only.
      if (memoizable && !plan->degraded) {
        cache_.PutPlan(key, presentation, block_generation, plan);
      }
      return plan;
    });
  });
}

StatusOr<ServeStats> ServeLoop::Run(const std::vector<ServeRequest>& trace) {
  struct WorkerResult {
    std::vector<double> latencies_ms;
    std::size_t errors = 0;
    std::size_t degraded = 0;
    std::size_t recovered = 0;
    std::size_t exceptions = 0;
  };

  MappingCache::Stats cache_before = cache_.stats();
  std::uint64_t pcache_hits_before = pcache_ != nullptr ? pcache_->stats().hits : 0;
  std::uint64_t opens_before = breakers_.TotalOpens();
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    WorkerResult result;
    for (;;) {
      std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= trace.size()) {
        return result;
      }
      auto start = std::chrono::steady_clock::now();
      // A worker must survive anything a request throws: an escaped exception
      // would take down the whole pool and, before this guard, was silently
      // absorbed by the future machinery. Thrown requests count as errors.
      bool threw = false;
      ServeResponse response;
      try {
        if (options_.request_hook) {
          options_.request_hook(trace[i]);
        }
        response = Serve(trace[i]);
      } catch (...) {
        threw = true;
      }
      auto end = std::chrono::steady_clock::now();
      double millis = std::chrono::duration<double, std::milli>(end - start).count();
      result.latencies_ms.push_back(millis);
      if (obs::Enabled()) {
        static obs::Histogram& request_ms = obs::GetHistogram("serve.request_ms");
        request_ms.Record(millis);
      }
      if (threw) {
        ++result.exceptions;
        ++result.errors;
        if (obs::Enabled()) {
          static obs::Counter& exceptions = obs::GetCounter("serve.worker_exceptions");
          exceptions.Add();
        }
        continue;
      }
      switch (response.outcome) {
        case ServeOutcome::kHealthy:
          break;
        case ServeOutcome::kRecovered:
          ++result.recovered;
          break;
        case ServeOutcome::kDegraded:
          ++result.degraded;
          break;
        case ServeOutcome::kFailed:
          ++result.errors;
          break;
      }
    }
  };

  ThreadPool pool(options_.threads);
  std::vector<Future<WorkerResult>> futures;
  futures.reserve(pool.size());
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < pool.size(); ++i) {
    futures.push_back(pool.Submit(worker));
  }
  std::vector<double> latencies;
  latencies.reserve(trace.size());
  ServeStats stats;
  for (Future<WorkerResult>& future : futures) {
    WorkerResult result = future.Take();
    stats.errors += result.errors;
    stats.degraded += result.degraded;
    stats.recovered += result.recovered;
    stats.exceptions += result.exceptions;
    latencies.insert(latencies.end(), result.latencies_ms.begin(), result.latencies_ms.end());
  }
  auto wall_end = std::chrono::steady_clock::now();
  stats.breaker_opens = breakers_.TotalOpens() - opens_before;

  stats.requests = trace.size();
  stats.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  stats.throughput_rps =
      stats.wall_ms > 0 ? static_cast<double>(trace.size()) / (stats.wall_ms / 1000.0) : 0;
  MappingCache::Stats cache_after = cache_.stats();
  stats.cache_hits = cache_after.hits - cache_before.hits;
  stats.cache_misses = cache_after.misses - cache_before.misses;
  if (pcache_ != nullptr) {
    // A disk hit is counted as a memory miss plus a pcache hit — the tiers
    // report independently, so hit rates stay interpretable per tier.
    stats.pcache_hits = pcache_->stats().hits - pcache_hits_before;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = PercentileOfSorted(latencies, 50);
  stats.p95_ms = PercentileOfSorted(latencies, 95);
  stats.p99_ms = PercentileOfSorted(latencies, 99);
  if (obs::Enabled()) {
    static obs::Gauge& rps = obs::GetGauge("serve.last_throughput_rps");
    rps.Set(static_cast<std::int64_t>(stats.throughput_rps));
  }
  return stats;
}

}  // namespace cmif
