// Live server telemetry: the payload of a kStatsResponse frame. A
// StatsSnapshot is the server's RED metrics (request rate, errors, duration
// percentiles with exemplar trace ids), MappingCache effectiveness, circuit
// breaker states, and queue depth — everything `cmif_tool stats <host:port>`
// needs to render one JSON health report without the server exporting files.
//
// The wire form follows the protocol conventions of src/net/protocol.h:
// varint-prefixed fields in fixed order, f64 as 8-byte LE bit patterns,
// kDataLoss on truncation, out-of-range enums, or trailing bytes — so the
// decoder survives the same fuzz-mutation battery as the request/response
// messages.
#ifndef SRC_NET_STATS_H_
#define SRC_NET_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/net/wire.h"

namespace cmif {
namespace net {

// One point-in-time view of a running NetServer. All counters are
// since-startup totals; rates are for the caller to derive from two
// snapshots (or from uptime).
struct StatsSnapshot {
  // Server lifetime in microseconds at snapshot time.
  std::uint64_t uptime_us = 0;

  // Connection ladder (NetServer::Stats).
  std::uint64_t connections = 0;
  std::uint64_t rejected = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;

  // Request outcome ladder beyond plain success.
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;

  // Requests parked in the acceptor queue right now.
  std::uint64_t queue_depth = 0;

  // Duration distribution (milliseconds) over every handled request.
  std::uint64_t request_count = 0;
  double request_ms_min = 0;
  double request_ms_max = 0;
  double request_ms_mean = 0;
  double request_ms_p50 = 0;
  double request_ms_p95 = 0;
  double request_ms_p99 = 0;

  // Recent sampled trace ids — jump-off points from a slow percentile to a
  // concrete timeline.
  std::vector<std::uint64_t> exemplar_trace_ids;

  // MappingCache effectiveness.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;

  // Persistent (disk-tier) cache health; all zero when the server runs
  // without --cache-dir (pcache_enabled distinguishes "disabled" from
  // "enabled but idle").
  bool pcache_enabled = false;
  std::uint64_t pcache_hits = 0;
  std::uint64_t pcache_misses = 0;
  std::uint64_t pcache_writes = 0;
  std::uint64_t pcache_quarantined = 0;
  std::uint64_t pcache_entries = 0;
  std::uint64_t pcache_disk_bytes = 0;

  // Circuit breakers: (site name, state) where state is a
  // fault::BreakerState value (0 closed, 1 open, 2 half-open).
  std::vector<std::pair<std::string, std::uint8_t>> breakers;
  std::uint64_t breaker_opens = 0;

  // Tracing health.
  std::uint64_t anomalies = 0;
  std::uint64_t traces_sampled = 0;
  double sample_rate = 0;

  // Streamed delivery. stream_bytes counts chunk payload bytes actually sent;
  // stream_full_bytes is what full (blob) delivery of the same streams
  // would have sent — the difference is what resume-at-chunk-boundary saved.
  std::uint64_t streams = 0;
  std::uint64_t stream_chunks = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t stream_full_bytes = 0;
  std::uint64_t stream_resumes = 0;
  std::uint64_t stream_stalls = 0;
};

// Like every payload decoder, DecodeStatsSnapshot rejects any version but
// kWireVersion as kDataLoss.
std::string EncodeStatsSnapshot(const StatsSnapshot& snapshot);
StatusOr<StatsSnapshot> DecodeStatsSnapshot(std::string_view payload,
                                            std::uint8_t version = kWireVersion);

// Renders the snapshot as one pretty-printed JSON object (the `cmif_tool
// stats` output). Trace ids render as 16-hex-digit strings to match the
// trace_id args in Chrome trace exports.
std::string StatsSnapshotJson(const StatsSnapshot& snapshot);

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_STATS_H_
