// The CMIF request/response messages carried inside wire frames
// (src/net/wire.h). A request names a corpus document, a capability profile,
// and an optional channel selection; the response is the server-compiled
// presentation (serialized canonically, see src/net/presentation_wire.h)
// plus the serve outcome — healthy, recovered, degraded, or failed — so a
// client can tell a fresh compile from a stale fallback.
//
// Encoding: varint-prefixed fields in fixed order (the same LEB128 as the
// frame length). Every decoder returns kDataLoss on truncated or malformed
// payloads; unknown trailing bytes are also kDataLoss — fields are never
// silently skipped. Each message has exactly one layout, kWireVersion's.
// Decoders take the version the carrying frame declared (defaulting to
// kWireVersion) and reject any other as kDataLoss, so a payload can never be
// parsed under a layout it was not written in.
#ifndef SRC_NET_PROTOCOL_H_
#define SRC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"
#include "src/serve/serve.h"

namespace cmif {
namespace net {

// What a client asks for.
struct PresentRequest {
  // Corpus document name (e.g. "news-3-s2").
  std::string document;
  // Capability profile name (e.g. "workstation"); empty selects the server's
  // first configured profile.
  std::string profile;
  // Channel selection: serialize only these channels of the compiled
  // presentation (empty = all). Selection never changes what is compiled or
  // cached — only what travels back.
  std::vector<std::string> channels;
  // When false the response carries only the presentation hash, not the
  // serialized body (a cheap integrity probe).
  bool want_body = true;
  // When false the server answers kFailed instead of serving a stale
  // presentation from the degraded path.
  bool allow_degraded = true;
  // Cross-process trace context (src/obs/trace.h). trace_id 0 = untraced.
  // When sampled, the server records spans under this id and returns them in
  // PresentResponse::server_spans so the client can merge one timeline.
  obs::TraceContext trace;
  // Relative service deadline in milliseconds, 0 = none. The server's
  // EDF scheduler turns it into an absolute deadline at admission; work
  // whose deadline is already blown is shed (kResourceExhausted) or, when
  // allow_degraded holds, answered from stale cache — never queued.
  std::int64_t deadline_ms = 0;
  // When true the response also carries every resolved data block the
  // schedule references, inline (blob block delivery — the baseline the
  // streamed path is checked against).
  bool want_blocks = false;
};

// One resolved data block on the wire: the descriptor it materializes and
// its canonical payload encoding (src/media/block_codec.h).
struct WireBlock {
  std::string descriptor_id;
  std::string payload;
};

// One server-side span on the wire: the subset of obs::SpanRecord a client
// needs to merge the server's timeline with its own (annotations stay
// server-side). Timestamps are the server's process clock; the client
// re-bases them when merging.
struct WireSpan {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t trace_id = 0;
  double start_us = 0;
  double duration_us = 0;
  std::int32_t tid = 0;
};

// What the server answers. `outcome` mirrors the serve layer's ladder; a
// kFailed response carries only the error fields.
struct PresentResponse {
  ServeOutcome outcome = ServeOutcome::kFailed;
  int attempts = 1;
  bool cache_hit = false;
  // The compile error behind kDegraded / kFailed (kOk otherwise).
  Status error;
  // Canonical serialization of the compiled presentation restricted to the
  // requested channels; empty when failed or !want_body.
  std::string presentation;
  // Fnv1a64 of the full canonical serialization (all requested channels),
  // present whenever a presentation was served — the client's end-to-end
  // integrity check against an in-process compile.
  std::uint64_t presentation_hash = 0;
  // Spans the server harvested for the request's (sampled) trace id; empty
  // for unsampled or untraced requests.
  std::vector<WireSpan> server_spans;
  // True when the scheduler refused the request outright (queue full or
  // deadline blown with degraded fallback unavailable). A shed response has
  // outcome kFailed and error kResourceExhausted; the bit lets clients and
  // benches separate overload sheds from genuine compile failures.
  bool shed = false;
  // Milliseconds the request spent in the scheduler queue before a
  // worker picked it up (0 for shed-at-admission responses).
  double queue_ms = 0;
  // Resolved data blocks, in schedule first-need order, present only
  // when the request set want_blocks (empty otherwise). Capped at
  // kMaxWireBlocks entries; a corrupted count fails as kDataLoss.
  std::vector<WireBlock> blocks;
};

// Blocks the wire accepts per response — a corrupted count cannot make the
// decoder allocate unboundedly.
inline constexpr std::uint64_t kMaxWireBlocks = 4096;

std::string EncodeRequest(const PresentRequest& request);
StatusOr<PresentRequest> DecodeRequest(std::string_view payload,
                                       std::uint8_t version = kWireVersion);

std::string EncodeResponse(const PresentResponse& response);
StatusOr<PresentResponse> DecodeResponse(std::string_view payload,
                                         std::uint8_t version = kWireVersion);

// Batched messages (carried in kBatchRequest/kBatchResponse frames).
// Layout: varint count, then each message length-prefixed. Responses answer
// requests positionally. A batch is capped at kMaxBatchMessages entries so a
// corrupted count cannot amplify into unbounded work.
inline constexpr std::uint64_t kMaxBatchMessages = 1024;

std::string EncodeBatchRequest(const std::vector<PresentRequest>& requests);
StatusOr<std::vector<PresentRequest>> DecodeBatchRequest(std::string_view payload,
                                                         std::uint8_t version = kWireVersion);

std::string EncodeBatchResponse(const std::vector<PresentResponse>& responses);
StatusOr<std::vector<PresentResponse>> DecodeBatchResponse(std::string_view payload,
                                                           std::uint8_t version = kWireVersion);

// Protocol-level errors (bad frame, unknown document, server overload)
// travel as a kError frame whose payload is an encoded Status. Decode
// writes the carried status to *decoded and returns the decode result
// itself (kDataLoss on a malformed payload) — StatusOr<Status> would be
// ambiguous between the two states.
std::string EncodeWireStatus(const Status& status);
Status DecodeWireStatus(std::string_view payload, Status* decoded);

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_PROTOCOL_H_
