// The schedule-driven prefetch planner behind streamed delivery (wire v4,
// src/net/stream.h). A solved schedule says exactly when each data block is
// first needed; a capability profile says how fast the target channel can
// absorb bytes (fig10's device timings). Delivery order therefore isn't a
// heuristic: block B must start arriving by first_need(B) − size(B)/
// channel_bandwidth, and sending blocks in ascending must-start order is
// what lets a client play from the schedule prefix without ever stalling on
// a block that could have been fetched earlier.
//
// The same plan drives both delivery paths — chunked streaming and the v4
// blob blocks field — which is what makes the streamed-vs-blob differential
// (src/check/stream.cc) a byte-level comparison.
#ifndef SRC_SERVE_PREFETCH_H_
#define SRC_SERVE_PREFETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/media_time.h"
#include "src/base/status.h"
#include "src/ddbms/descriptor.h"
#include "src/ddbms/store.h"
#include "src/media/media_type.h"
#include "src/present/capability.h"
#include "src/serve/mapping_cache.h"

namespace cmif {

// One block in delivery order.
struct PrefetchBlock {
  std::string descriptor_id;
  MediaType medium = MediaType::kText;
  // The block's canonical payload (src/media/block_codec.h) within
  // StreamPlan::bytes.
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  // Earliest schedule time any event presents this block.
  MediaTime first_need;
  // Latest transfer-start time that still arrives by first_need on the
  // block's channel bandwidth (== first_need when bandwidth is infinite).
  MediaTime must_start_by;
};

// A delivery plan: blocks ordered by ascending must_start_by, their
// canonical payloads concatenated in that order.
struct StreamPlan {
  std::vector<PrefetchBlock> blocks;
  // Concatenated payloads; block i occupies [offset, offset + bytes).
  std::string bytes;
  // Fnv1a64(bytes) — the stream's end-to-end integrity hash.
  std::uint64_t payload_hash = 0;
  // True when a placeholder stood in for a block whose store fetch failed;
  // the plan is still deliverable but not the authoritative payload.
  bool degraded = false;

  std::uint64_t total_bytes() const { return bytes.size(); }
};

// Builds the delivery plan for a compiled presentation: every distinct
// descriptor the schedule references (restricted to `channels` when
// non-empty, mirroring response serialization), resolved against the
// stores, ordered by must-start time (ties: first need, then id — fully
// deterministic). Fetch failures degrade to placeholder blocks rather than
// failing the stream; descriptors without content also ship placeholders
// (there is nothing else to deliver). Infeasible schedules yield an empty
// plan.
StatusOr<StreamPlan> BuildStreamPlan(const CompiledPresentation& presentation,
                                     const DescriptorStore& store, const BlockStore& blocks,
                                     const SystemProfile& profile,
                                     const std::vector<std::string>& channels = {});

}  // namespace cmif

#endif  // SRC_SERVE_PREFETCH_H_
