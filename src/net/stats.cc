#include "src/net/stats.h"

#include "src/base/codec_util.h"
#include "src/base/string_util.h"
#include "src/base/varint.h"
#include "src/obs/json.h"

namespace cmif {
namespace net {
namespace {

// Bounds a corrupted count can't push the decoder past.
constexpr std::uint64_t kMaxExemplars = 64;
constexpr std::uint64_t kMaxBreakers = 1024;

}  // namespace

std::string EncodeStatsSnapshot(const StatsSnapshot& snapshot) {
  std::string out;
  PutVarint64(out, snapshot.uptime_us);
  PutVarint64(out, snapshot.connections);
  PutVarint64(out, snapshot.rejected);
  PutVarint64(out, snapshot.requests);
  PutVarint64(out, snapshot.protocol_errors);
  PutVarint64(out, snapshot.failed);
  PutVarint64(out, snapshot.degraded);
  PutVarint64(out, snapshot.queue_depth);
  PutVarint64(out, snapshot.request_count);
  PutF64(out, snapshot.request_ms_min);
  PutF64(out, snapshot.request_ms_max);
  PutF64(out, snapshot.request_ms_mean);
  PutF64(out, snapshot.request_ms_p50);
  PutF64(out, snapshot.request_ms_p95);
  PutF64(out, snapshot.request_ms_p99);
  PutVarint64(out, snapshot.exemplar_trace_ids.size());
  for (std::uint64_t id : snapshot.exemplar_trace_ids) {
    PutVarint64(out, id);
  }
  PutVarint64(out, snapshot.cache_hits);
  PutVarint64(out, snapshot.cache_misses);
  PutVarint64(out, snapshot.cache_stale_hits);
  PutVarint64(out, snapshot.cache_evictions);
  PutVarint64(out, snapshot.cache_entries);
  PutVarint64(out, snapshot.pcache_enabled ? 1 : 0);
  PutVarint64(out, snapshot.pcache_hits);
  PutVarint64(out, snapshot.pcache_misses);
  PutVarint64(out, snapshot.pcache_writes);
  PutVarint64(out, snapshot.pcache_quarantined);
  PutVarint64(out, snapshot.pcache_entries);
  PutVarint64(out, snapshot.pcache_disk_bytes);
  PutVarint64(out, snapshot.breakers.size());
  for (const auto& [site, state] : snapshot.breakers) {
    PutString(out, site);
    PutVarint64(out, state);
  }
  PutVarint64(out, snapshot.breaker_opens);
  PutVarint64(out, snapshot.anomalies);
  PutVarint64(out, snapshot.traces_sampled);
  PutF64(out, snapshot.sample_rate);
  PutVarint64(out, snapshot.streams);
  PutVarint64(out, snapshot.stream_chunks);
  PutVarint64(out, snapshot.stream_bytes);
  PutVarint64(out, snapshot.stream_full_bytes);
  PutVarint64(out, snapshot.stream_resumes);
  PutVarint64(out, snapshot.stream_stalls);
  return out;
}

StatusOr<StatsSnapshot> DecodeStatsSnapshot(std::string_view payload, std::uint8_t version) {
  CMIF_RETURN_IF_ERROR(CheckWireVersion(version));
  StatsSnapshot s;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(s.uptime_us, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.connections, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.rejected, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.requests, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.protocol_errors, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.failed, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.degraded, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.queue_depth, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_count, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_min, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_max, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_mean, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_p50, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_p95, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.request_ms_p99, GetF64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t exemplars, GetVarint64(payload, &pos));
  if (exemplars > kMaxExemplars) {
    return DataLossError(StrFormat("exemplar count %llu exceeds the cap",
                                   static_cast<unsigned long long>(exemplars)));
  }
  s.exemplar_trace_ids.reserve(exemplars);
  for (std::uint64_t i = 0; i < exemplars; ++i) {
    CMIF_ASSIGN_OR_RETURN(std::uint64_t id, GetVarint64(payload, &pos));
    if (id == 0) {
      return DataLossError("zero exemplar trace id");
    }
    s.exemplar_trace_ids.push_back(id);
  }
  CMIF_ASSIGN_OR_RETURN(s.cache_hits, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.cache_misses, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.cache_stale_hits, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.cache_evictions, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.cache_entries, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t pcache_enabled, GetVarint64(payload, &pos));
  if (pcache_enabled > 1) {
    return DataLossError(StrFormat("pcache_enabled flag %llu is not a bool",
                                   static_cast<unsigned long long>(pcache_enabled)));
  }
  s.pcache_enabled = pcache_enabled == 1;
  CMIF_ASSIGN_OR_RETURN(s.pcache_hits, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.pcache_misses, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.pcache_writes, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.pcache_quarantined, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.pcache_entries, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.pcache_disk_bytes, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t breakers, GetVarint64(payload, &pos));
  if (breakers > kMaxBreakers || breakers > payload.size()) {
    return DataLossError(StrFormat("breaker count %llu exceeds bounds",
                                   static_cast<unsigned long long>(breakers)));
  }
  s.breakers.reserve(breakers);
  for (std::uint64_t i = 0; i < breakers; ++i) {
    CMIF_ASSIGN_OR_RETURN(std::string site, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(std::uint64_t state, GetVarint64(payload, &pos));
    if (state > 2) {  // fault::BreakerState has exactly closed/open/half-open
      return DataLossError(StrFormat("unknown breaker state %llu at offset %zu",
                                     static_cast<unsigned long long>(state), pos));
    }
    s.breakers.emplace_back(std::move(site), static_cast<std::uint8_t>(state));
  }
  CMIF_ASSIGN_OR_RETURN(s.breaker_opens, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.anomalies, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.traces_sampled, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.sample_rate, GetF64(payload, &pos));
  if (s.sample_rate < 0 || s.sample_rate > 1) {
    return DataLossError(StrFormat("sample rate %g outside [0, 1]", s.sample_rate));
  }
  CMIF_ASSIGN_OR_RETURN(s.streams, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.stream_chunks, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.stream_bytes, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.stream_full_bytes, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.stream_resumes, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(s.stream_stalls, GetVarint64(payload, &pos));
  if (pos != payload.size()) {
    return DataLossError(StrFormat("%zu trailing bytes after stats snapshot at offset %zu",
                                   payload.size() - pos, pos));
  }
  return s;
}

std::string StatsSnapshotJson(const StatsSnapshot& s) {
  std::string out = "{\n";
  auto field = [&out](std::string_view key, std::string value, bool last = false) {
    out += "  ";
    out += obs::JsonQuote(key);
    out += ": ";
    out += value;
    out += last ? "\n" : ",\n";
  };
  field("uptime_s", obs::JsonNumber(static_cast<double>(s.uptime_us) / 1e6));
  field("connections", obs::JsonNumber(static_cast<std::int64_t>(s.connections)));
  field("rejected", obs::JsonNumber(static_cast<std::int64_t>(s.rejected)));
  field("requests", obs::JsonNumber(static_cast<std::int64_t>(s.requests)));
  field("protocol_errors", obs::JsonNumber(static_cast<std::int64_t>(s.protocol_errors)));
  field("failed", obs::JsonNumber(static_cast<std::int64_t>(s.failed)));
  field("degraded", obs::JsonNumber(static_cast<std::int64_t>(s.degraded)));
  field("queue_depth", obs::JsonNumber(static_cast<std::int64_t>(s.queue_depth)));
  double uptime_s = static_cast<double>(s.uptime_us) / 1e6;
  field("request_rate_rps",
        obs::JsonNumber(uptime_s > 0 ? static_cast<double>(s.requests) / uptime_s : 0.0));
  std::string request_ms = "{";
  request_ms += "\"count\": " + obs::JsonNumber(static_cast<std::int64_t>(s.request_count));
  request_ms += ", \"min\": " + obs::JsonNumber(s.request_ms_min);
  request_ms += ", \"max\": " + obs::JsonNumber(s.request_ms_max);
  request_ms += ", \"mean\": " + obs::JsonNumber(s.request_ms_mean);
  request_ms += ", \"p50\": " + obs::JsonNumber(s.request_ms_p50);
  request_ms += ", \"p95\": " + obs::JsonNumber(s.request_ms_p95);
  request_ms += ", \"p99\": " + obs::JsonNumber(s.request_ms_p99);
  request_ms += "}";
  field("request_ms", std::move(request_ms));
  std::string exemplars = "[";
  for (std::size_t i = 0; i < s.exemplar_trace_ids.size(); ++i) {
    if (i > 0) exemplars += ", ";
    exemplars += StrFormat("\"%016llx\"",
                           static_cast<unsigned long long>(s.exemplar_trace_ids[i]));
  }
  exemplars += "]";
  field("exemplar_trace_ids", std::move(exemplars));
  std::string cache = "{";
  cache += "\"hits\": " + obs::JsonNumber(static_cast<std::int64_t>(s.cache_hits));
  cache += ", \"misses\": " + obs::JsonNumber(static_cast<std::int64_t>(s.cache_misses));
  cache += ", \"stale_hits\": " + obs::JsonNumber(static_cast<std::int64_t>(s.cache_stale_hits));
  cache += ", \"evictions\": " + obs::JsonNumber(static_cast<std::int64_t>(s.cache_evictions));
  cache += ", \"entries\": " + obs::JsonNumber(static_cast<std::int64_t>(s.cache_entries));
  double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  cache += ", \"hit_rate\": " +
           obs::JsonNumber(lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0);
  cache += "}";
  field("mapping_cache", std::move(cache));
  if (s.pcache_enabled) {
    std::string pcache = "{";
    pcache += "\"hits\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_hits));
    pcache += ", \"misses\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_misses));
    pcache += ", \"writes\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_writes));
    pcache +=
        ", \"quarantined\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_quarantined));
    pcache += ", \"entries\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_entries));
    pcache += ", \"disk_bytes\": " + obs::JsonNumber(static_cast<std::int64_t>(s.pcache_disk_bytes));
    pcache += "}";
    field("persistent_cache", std::move(pcache));
  } else {
    field("persistent_cache", "null");
  }
  std::string breakers = "{";
  for (std::size_t i = 0; i < s.breakers.size(); ++i) {
    if (i > 0) breakers += ", ";
    breakers += obs::JsonQuote(s.breakers[i].first);
    breakers += ": ";
    switch (s.breakers[i].second) {
      case 1:
        breakers += "\"open\"";
        break;
      case 2:
        breakers += "\"half-open\"";
        break;
      default:
        breakers += "\"closed\"";
        break;
    }
  }
  breakers += "}";
  field("breakers", std::move(breakers));
  std::string streaming = "{";
  streaming += "\"streams\": " + obs::JsonNumber(static_cast<std::int64_t>(s.streams));
  streaming += ", \"chunks\": " + obs::JsonNumber(static_cast<std::int64_t>(s.stream_chunks));
  streaming += ", \"bytes\": " + obs::JsonNumber(static_cast<std::int64_t>(s.stream_bytes));
  streaming +=
      ", \"full_bytes\": " + obs::JsonNumber(static_cast<std::int64_t>(s.stream_full_bytes));
  streaming += ", \"resumes\": " + obs::JsonNumber(static_cast<std::int64_t>(s.stream_resumes));
  streaming += ", \"stalls\": " + obs::JsonNumber(static_cast<std::int64_t>(s.stream_stalls));
  streaming += "}";
  field("streaming", std::move(streaming));
  field("breaker_opens", obs::JsonNumber(static_cast<std::int64_t>(s.breaker_opens)));
  field("anomalies", obs::JsonNumber(static_cast<std::int64_t>(s.anomalies)));
  field("traces_sampled", obs::JsonNumber(static_cast<std::int64_t>(s.traces_sampled)));
  field("trace_sample_rate", obs::JsonNumber(s.sample_rate), /*last=*/true);
  out += "}\n";
  return out;
}

}  // namespace net
}  // namespace cmif
