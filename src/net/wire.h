// The CMIF wire protocol framing: length-prefixed, CRC-framed binary frames
// carrying the request/response messages of src/net/protocol.h. The frame
// reuses the persist-v2 integrity machinery — varint lengths (src/base/
// varint.h) and CRC-32 (src/base/crc32.h) — so a corrupted or truncated
// frame is always a structured kDataLoss, never a crash or a silently wrong
// message:
//
//   frame := magic "CMIF" | u8 version | u8 type | varint payload_len
//            | payload bytes | u32le crc
//
// The CRC covers everything after the magic (version, type, length varint,
// payload), so a single flipped bit anywhere in the frame body or header is
// detected; magic and CRC bytes protect themselves by failing the equality
// check. After any decode error the stream is desynchronized — the only
// safe recovery is to drop the connection, which both endpoints do.
//
// Version negotiation is per-frame and implicit: a peer accepts any version
// in [kMinWireVersion, kWireVersion], decodes the payload by the version the
// frame declares, and answers in that same version. A v2 client therefore
// talks to a v3 server without handshakes — its requests simply carry no
// deadline, and the server's replies omit the v3 response fields.
//
// The socket read/write paths double as fault-injection sites: "net.read"
// and "net.write" can fail transiently, "net.frame_corrupt" flips bytes of
// an encoded frame in transit (detected by the CRC on the far side), and
// "net.slow_loris" injects sender-side latency so a frame trickles out
// slowly — the reactor's partial-frame timeout is what defends against it.
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/socket.h"
#include "src/base/status.h"

namespace cmif {
namespace net {

inline constexpr std::string_view kFrameMagic = "CMIF";
// Version 4: streamed delivery — PresentRequest grows a want_blocks flag,
// PresentResponse can carry resolved data blocks, and the kStreamRequest/
// kStreamBegin/kStreamChunk/kStreamAck/kStreamEnd frames exist (chunked
// block transfer in schedule order, src/net/stream.h). Version 3 added
// request deadlines, shed/queue_ms, and the batch frames; version 2
// (TraceContext + kStats frames) is still accepted. A frame below
// kMinWireVersion fails cleanly at the header (kDataLoss), never by
// misparsing a payload.
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::uint8_t kMinWireVersion = 2;

// What a frame carries. kError is a protocol-level failure (overload, bad
// frame, bad message) encoded as a wire Status; application-level outcomes
// (degraded, failed compiles) travel inside a kResponse. kStatsRequest (an
// empty payload) asks for a live telemetry snapshot, answered by a
// kStatsResponse carrying an encoded StatsSnapshot (src/net/stats.h).
// kBatchRequest/kBatchResponse (v3+) carry several PresentRequests/
// PresentResponses in one frame, answered positionally. The kStream* frames
// (v4+) carry chunked block delivery: kStreamRequest opens a stream,
// kStreamBegin answers with the schedule prefix + chunk manifest, the
// server then pushes kStreamChunk frames in prefetch order and closes with
// kStreamEnd; kStreamAck is client→server delivery telemetry.
enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
  kBatchRequest = 8,
  kBatchResponse = 9,
  kStreamRequest = 10,
  kStreamBegin = 11,
  kStreamChunk = 12,
  kStreamAck = 13,
  kStreamEnd = 14,
};

std::string_view FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kError;
  // The version declared in the frame header; responses mirror it so old
  // clients get payloads they can parse.
  std::uint8_t version = kWireVersion;
  std::string payload;
};

struct WireLimits {
  // Upper bound on one frame's payload; a length prefix beyond this is
  // rejected before any allocation (a corrupted varint cannot OOM the peer).
  std::size_t max_payload_bytes = 8u << 20;
  // Highest wire version this endpoint accepts. Lowering it below
  // kWireVersion makes the endpoint behave like an older peer: frames in
  // (max_version, kWireVersion] fail at the header exactly as a genuinely
  // old implementation would reject them — the interop-fallback paths can
  // therefore be tested against the real decoder, not a mock.
  std::uint8_t max_version = kWireVersion;
};

// Renders one complete frame in the given wire version.
std::string EncodeFrame(FrameType type, std::string_view payload,
                        std::uint8_t version = kWireVersion);

// Renders one complete frame whose payload is `parts` concatenated, without
// joining them first: a caller framing a slice of a shared buffer behind a
// small message header copies the slice exactly once, into the frame.
// EncodeFrameParts(t, {a, b}) == EncodeFrame(t, a + b).
std::string EncodeFrameParts(FrameType type, std::initializer_list<std::string_view> parts,
                             std::uint8_t version = kWireVersion);

// Decodes the frame at the front of `bytes`. On success `*consumed` is the
// frame's total size. Truncation, a bad magic/version/type, an oversized
// length, and a CRC mismatch are all kDataLoss with the byte offset of the
// failure.
StatusOr<Frame> DecodeFrame(std::string_view bytes, std::size_t* consumed,
                            const WireLimits& limits = {});

// Incremental frame extraction for non-blocking IO: the reactor Feed()s
// whatever recv() returned and drains complete frames with Next(). Header
// fields are validated as soon as their bytes arrive, so garbage fails fast
// even before a full frame is buffered.
class FrameAssembler {
 public:
  explicit FrameAssembler(const WireLimits& limits = {}) : limits_(limits) {}

  // Appends raw bytes received from the transport.
  void Feed(std::string_view bytes);

  // Extracts the next complete frame: a frame, nullopt when more bytes are
  // needed, or kDataLoss when the stream is desynchronized (drop the
  // connection; the assembler is poisoned and keeps returning the error).
  StatusOr<std::optional<Frame>> Next();

  // Bytes buffered but not yet consumed by a complete frame. Nonzero means
  // a frame is in flight — the reactor's slow-loris timeout applies.
  std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  WireLimits limits_;
  std::string buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  Status poisoned_ = Status::Ok();
};

// Blocking frame IO over a socket. WriteFrame probes the "net.write" fault
// site, the "net.frame_corrupt" corruption site, and the "net.slow_loris"
// latency site; ReadFrame probes "net.read". Both count net.tx_bytes /
// net.rx_bytes when obs is enabled.
Status WriteFrame(Socket& socket, FrameType type, std::string_view payload,
                  std::uint8_t version = kWireVersion);

// nullopt on a clean EOF at a frame boundary (the peer is done). Transport
// failures are kUnavailable; corrupt/truncated frames are kDataLoss.
StatusOr<std::optional<Frame>> ReadFrame(Socket& socket, const WireLimits& limits = {});

}  // namespace net
}  // namespace cmif

#endif  // SRC_NET_WIRE_H_
