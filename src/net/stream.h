// Streamed block delivery. A presentation today ships as one
// canonical blob with every block resolved up front; the paper's central
// claim — a solved temporal structure makes documents *transportable* —
// means the schedule itself tells the transport when each block is needed.
// The stream frames exploit that:
//
//   client                                server
//     kStreamRequest  ───────────────▶      solve / fetch from cache
//     ◀─────────────── kStreamBegin         schedule prefix + chunk manifest
//     ◀─────────────── kStreamChunk 0..n-1  block bytes in prefetch order
//     ◀─────────────── kStreamEnd           total count + payload hash
//     kStreamAck      ───────────────▶      delivery telemetry
//
// The payload is one logical byte string — every manifest block's canonical
// encoding concatenated in delivery order — carved into fixed-size chunks.
// Chunk boundaries therefore double as resume points: after a mid-stream
// disconnect the client re-sends kStreamRequest naming the stream id and
// its contiguous chunk count, and the server resumes from that boundary.
// All codecs follow the protocol.h discipline: truncated, malformed, or
// implausible payloads are structured kDataLoss with byte offsets, never a
// crash or unbounded allocation.
#ifndef SRC_NET_STREAM_H_
#define SRC_NET_STREAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/media_time.h"
#include "src/base/status.h"
#include "src/net/protocol.h"
#include "src/net/wire.h"

namespace cmif {
namespace net {

// Default chunk payload size. Small enough that a constrained link delivers
// the first chunk quickly, large enough that framing overhead stays noise.
inline constexpr std::uint64_t kDefaultChunkBytes = 64u << 10;
// Bounds a peer will accept for a declared chunk size; outside = kDataLoss.
inline constexpr std::uint64_t kMinChunkBytes = 256;
inline constexpr std::uint64_t kMaxChunkBytes = 4u << 20;
// Manifest entries per stream (mirrors kMaxWireBlocks).
inline constexpr std::uint64_t kMaxStreamBlocks = 4096;

// Opens a stream (or resumes one): the inner PresentRequest is served
// exactly as a kRequest would be; the stream fields govern delivery only.
struct StreamRequest {
  PresentRequest request;
  // Desired chunk payload size; the server clamps into
  // [kMinChunkBytes, kMaxChunkBytes].
  std::uint64_t chunk_bytes = kDefaultChunkBytes;
  // Resume: the stream id a previous kStreamBegin announced and how many
  // contiguous chunks (from 0) the client already holds. 0/0 = fresh
  // stream. A stale id (the document changed) restarts from chunk 0.
  std::uint64_t resume_stream_id = 0;
  std::uint64_t resume_chunks = 0;
};

// One manifest entry: a block the schedule references, in delivery order.
struct StreamBlockInfo {
  std::string descriptor_id;
  // Size of the block's canonical payload encoding
  // (src/media/block_codec.h EncodeBlockPayload).
  std::uint64_t bytes = 0;
  // Earliest schedule time any event needs this block.
  MediaTime first_need;
};

// The stream's first frame: everything the client needs to start playback
// (the solved presentation) plus the delivery plan for the block bytes.
struct StreamBegin {
  // Identifies the stream for chunks/acks/resume. Deterministic for a given
  // compiled presentation + chunk size (DeriveStreamId), so a resumed
  // request reaches the same byte stream or cleanly restarts.
  std::uint64_t stream_id = 0;
  // The ordinary response (presentation body, hash, outcome, spans) — the
  // playable prefix. Never carries inline blocks; those follow as chunks.
  PresentResponse prefix;
  // Blocks in delivery (prefetch) order; concatenating their canonical
  // payloads in this order yields the stream's logical byte string.
  std::vector<StreamBlockInfo> manifest;
  // Actual chunk size (the server's clamp of the requested one).
  std::uint64_t chunk_bytes = kDefaultChunkBytes;
  // ceil(total payload bytes / chunk_bytes); must agree with the manifest.
  std::uint64_t total_chunks = 0;
  // Fnv1a64 over the logical byte string — end-to-end integrity.
  std::uint64_t payload_hash = 0;
  // First chunk index this response will send (0 for a fresh stream, the
  // validated resume boundary otherwise).
  std::uint64_t resumed_from = 0;
};

struct StreamChunk {
  std::uint64_t stream_id = 0;
  std::uint64_t chunk_index = 0;
  // Exactly chunk_bytes long except the final chunk.
  std::string payload;
};

// Client → server delivery telemetry (feeds the server's stream counters;
// resume is driven by StreamRequest, not acks).
struct StreamAck {
  std::uint64_t stream_id = 0;
  std::uint64_t chunks_received = 0;
  // Playback stalls the client attributes to late chunks.
  std::uint64_t stalls = 0;
};

struct StreamEnd {
  std::uint64_t stream_id = 0;
  std::uint64_t total_chunks = 0;
  std::uint64_t payload_hash = 0;
};

std::string EncodeStreamRequest(const StreamRequest& request);
StatusOr<StreamRequest> DecodeStreamRequest(std::string_view payload,
                                            std::uint8_t version = kWireVersion);

std::string EncodeStreamBegin(const StreamBegin& begin);
StatusOr<StreamBegin> DecodeStreamBegin(std::string_view payload,
                                        std::uint8_t version = kWireVersion);

std::string EncodeStreamChunk(const StreamChunk& chunk);
// The complete kStreamChunk frame for `payload` (a slice of the stream's
// byte string), framed straight from the view: byte-identical to
// EncodeFrame(kStreamChunk, EncodeStreamChunk({stream_id, chunk_index,
// payload})) with one copy of the payload instead of three.
std::string EncodeStreamChunkFrame(std::uint64_t stream_id, std::uint64_t chunk_index,
                                   std::string_view payload);
StatusOr<StreamChunk> DecodeStreamChunk(std::string_view payload,
                                        std::uint8_t version = kWireVersion);

std::string EncodeStreamAck(const StreamAck& ack);
StatusOr<StreamAck> DecodeStreamAck(std::string_view payload,
                                    std::uint8_t version = kWireVersion);

std::string EncodeStreamEnd(const StreamEnd& end);
StatusOr<StreamEnd> DecodeStreamEnd(std::string_view payload,
                                    std::uint8_t version = kWireVersion);

// ceil(total_bytes / chunk_bytes); 0 bytes = 0 chunks. chunk_bytes > 0.
std::uint64_t StreamChunkCount(std::uint64_t total_bytes, std::uint64_t chunk_bytes);

// Deterministic stream identity: same presentation, same payload, same
// chunking → same id, so resume hits the same byte stream; any change
// (recompile, different chunk size) changes the id and forces a restart.
std::uint64_t DeriveStreamId(std::uint64_t presentation_hash, std::uint64_t payload_hash,
                             std::uint64_t chunk_bytes);

// Client-side chunk reassembly. Strictly sequential: chunks must arrive in
// index order from StreamBegin::resumed_from (the wire is a TCP stream; a
// gap means desync, answered with kDataLoss). Tracks the contiguous chunk
// count for resume and carves per-block payloads once complete.
class StreamReassembler {
 public:
  // Adopts the manifest/chunking of `begin`. `resumed_payload` is the byte
  // prefix a resuming client already holds — exactly
  // min(begin.resumed_from * begin.chunk_bytes, total payload bytes), the
  // latter when every chunk arrived but kStreamEnd did not (the final chunk
  // may be short). Empty for fresh streams.
  Status Begin(const StreamBegin& begin, std::string resumed_payload = {});

  // Validates stream id, sequential index, and chunk size, then appends.
  Status Feed(const StreamChunk& chunk);

  // Contiguous chunks held from index 0 (the resume boundary to send on
  // reconnect).
  std::uint64_t chunks_received() const { return chunks_received_; }
  bool complete() const { return begun_ && chunks_received_ == total_chunks_; }
  // The contiguous payload prefix received so far.
  const std::string& bytes() const { return payload_; }

  // Cross-checks the trailer against the manifest (count + Fnv1a64) and
  // carves the logical byte string into per-block payloads, manifest order.
  StatusOr<std::vector<WireBlock>> Finish(const StreamEnd& end) const;

 private:
  bool begun_ = false;
  std::uint64_t stream_id_ = 0;
  std::uint64_t chunk_bytes_ = 0;
  std::uint64_t total_chunks_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t payload_hash_ = 0;
  std::uint64_t chunks_received_ = 0;
  std::vector<StreamBlockInfo> manifest_;
  std::string payload_;
};

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_STREAM_H_
