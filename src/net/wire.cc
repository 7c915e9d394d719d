#include "src/net/wire.h"

#include <algorithm>

#include "src/base/crc32.h"
#include "src/base/string_util.h"
#include "src/base/varint.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace cmif {
namespace net {
namespace {

// Little-endian u32, the same byte order regardless of host.
void PutU32Le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t GetU32Le(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[0])) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[3])) << 24;
}

Status CheckVersion(std::uint8_t version, const WireLimits& limits) {
  std::uint8_t max_version = std::min(limits.max_version, kWireVersion);
  if (version < kMinWireVersion || version > max_version) {
    return DataLossError(StrFormat("unsupported wire version %u (accepts %u..%u)", version,
                                   kMinWireVersion, max_version));
  }
  return Status::Ok();
}

// The frame type namespace grows with the wire version: a type a peer's
// declared version predates is as unparseable to it as an unknown one.
StatusOr<FrameType> CheckFrameType(std::uint8_t raw, std::uint8_t version) {
  switch (raw) {
    case 1:
      return FrameType::kRequest;
    case 2:
      return FrameType::kResponse;
    case 3:
      return FrameType::kError;
    case 4:
      return FrameType::kPing;
    case 5:
      return FrameType::kPong;
    case 6:
      return FrameType::kStatsRequest;
    case 7:
      return FrameType::kStatsResponse;
    case 8:
    case 9:
      if (version < 3) {
        return DataLossError(StrFormat("frame type %u requires wire version 3 (frame declares %u)",
                                       raw, version));
      }
      return raw == 8 ? FrameType::kBatchRequest : FrameType::kBatchResponse;
    case 10:
    case 11:
    case 12:
    case 13:
    case 14:
      if (version < 4) {
        return DataLossError(StrFormat("frame type %u requires wire version 4 (frame declares %u)",
                                       raw, version));
      }
      switch (raw) {
        case 10:
          return FrameType::kStreamRequest;
        case 11:
          return FrameType::kStreamBegin;
        case 12:
          return FrameType::kStreamChunk;
        case 13:
          return FrameType::kStreamAck;
        default:
          return FrameType::kStreamEnd;
      }
    default:
      return DataLossError(StrFormat("unknown frame type %u", raw));
  }
}

void CountRx(std::size_t bytes) {
  if (obs::Enabled()) {
    static obs::Counter& rx_bytes = obs::GetCounter("net.rx_bytes");
    static obs::Counter& rx_frames = obs::GetCounter("net.rx_frames");
    rx_bytes.Add(static_cast<std::int64_t>(bytes));
    rx_frames.Add();
  }
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kRequest:
      return "request";
    case FrameType::kResponse:
      return "response";
    case FrameType::kError:
      return "error";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kStatsRequest:
      return "stats-request";
    case FrameType::kStatsResponse:
      return "stats-response";
    case FrameType::kBatchRequest:
      return "batch-request";
    case FrameType::kBatchResponse:
      return "batch-response";
    case FrameType::kStreamRequest:
      return "stream-request";
    case FrameType::kStreamBegin:
      return "stream-begin";
    case FrameType::kStreamChunk:
      return "stream-chunk";
    case FrameType::kStreamAck:
      return "stream-ack";
    case FrameType::kStreamEnd:
      return "stream-end";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload, std::uint8_t version) {
  return EncodeFrameParts(type, {payload}, version);
}

std::string EncodeFrameParts(FrameType type, std::initializer_list<std::string_view> parts,
                             std::uint8_t version) {
  std::size_t payload_size = 0;
  for (std::string_view part : parts) {
    payload_size += part.size();
  }
  std::string out;
  out.reserve(kFrameMagic.size() + 2 + kMaxVarint64Bytes + payload_size + 4);
  out.append(kFrameMagic);
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(type));
  PutVarint64(out, payload_size);
  for (std::string_view part : parts) {
    out.append(part);
  }
  // CRC over everything after the magic: version, type, length, payload.
  std::uint32_t crc = Crc32(std::string_view(out).substr(kFrameMagic.size()));
  PutU32Le(out, crc);
  return out;
}

StatusOr<Frame> DecodeFrame(std::string_view bytes, std::size_t* consumed,
                            const WireLimits& limits) {
  constexpr std::size_t kMagicEnd = 4;
  if (bytes.size() < kMagicEnd + 2) {
    return DataLossError(StrFormat("frame truncated: %zu header bytes", bytes.size()));
  }
  if (bytes.substr(0, kMagicEnd) != kFrameMagic) {
    return DataLossError("bad frame magic (expected \"CMIF\")");
  }
  std::uint8_t version = static_cast<std::uint8_t>(bytes[kMagicEnd]);
  CMIF_RETURN_IF_ERROR(CheckVersion(version, limits));
  CMIF_ASSIGN_OR_RETURN(FrameType type,
                        CheckFrameType(static_cast<std::uint8_t>(bytes[kMagicEnd + 1]), version));
  std::size_t pos = kMagicEnd + 2;
  CMIF_ASSIGN_OR_RETURN(std::uint64_t length, GetVarint64(bytes, &pos));
  if (length > limits.max_payload_bytes) {
    return DataLossError(StrFormat("frame payload of %llu bytes exceeds the %zu-byte limit",
                                   static_cast<unsigned long long>(length),
                                   limits.max_payload_bytes));
  }
  if (bytes.size() - pos < length + 4) {
    return DataLossError(StrFormat("frame truncated at byte offset %zu (payload needs %llu+4)",
                                   bytes.size(), static_cast<unsigned long long>(length)));
  }
  std::uint32_t expected = Crc32(bytes.substr(kMagicEnd, pos - kMagicEnd + length));
  std::uint32_t actual = GetU32Le(bytes.data() + pos + length);
  if (expected != actual) {
    return DataLossError(StrFormat("frame crc mismatch (stored %08x, computed %08x)", actual,
                                   expected));
  }
  Frame frame;
  frame.type = type;
  frame.version = version;
  frame.payload.assign(bytes.substr(pos, length));
  *consumed = pos + length + 4;
  return frame;
}

void FrameAssembler::Feed(std::string_view bytes) {
  // Compact once the consumed prefix dominates, so a long-lived pipelined
  // connection doesn't grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

StatusOr<std::optional<Frame>> FrameAssembler::Next() {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  constexpr std::size_t kMagicEnd = 4;
  std::string_view view = std::string_view(buffer_).substr(pos_);
  // Validate whatever header prefix has arrived so garbage fails at the
  // first wrong byte, not after a full (unbounded) "frame" accumulates.
  std::size_t magic_have = std::min(view.size(), kMagicEnd);
  if (view.substr(0, magic_have) != kFrameMagic.substr(0, magic_have)) {
    poisoned_ = DataLossError("bad frame magic (expected \"CMIF\")");
    return poisoned_;
  }
  if (view.size() < kMagicEnd + 2) {
    return std::optional<Frame>();
  }
  std::uint8_t version = static_cast<std::uint8_t>(view[kMagicEnd]);
  if (Status st = CheckVersion(version, limits_); !st.ok()) {
    poisoned_ = std::move(st);
    return poisoned_;
  }
  StatusOr<FrameType> type = CheckFrameType(static_cast<std::uint8_t>(view[kMagicEnd + 1]), version);
  if (!type.ok()) {
    poisoned_ = type.status();
    return poisoned_;
  }
  // Length varint: self-terminating, so parse as far as the buffer goes.
  std::size_t varint_end = kMagicEnd + 2;
  while (true) {
    if (varint_end - (kMagicEnd + 2) >= kMaxVarint64Bytes) {
      poisoned_ = DataLossError("frame length varint longer than 10 bytes");
      return poisoned_;
    }
    if (varint_end >= view.size()) {
      return std::optional<Frame>();
    }
    if ((static_cast<std::uint8_t>(view[varint_end]) & 0x80) == 0) {
      ++varint_end;
      break;
    }
    ++varint_end;
  }
  std::size_t lpos = kMagicEnd + 2;
  StatusOr<std::uint64_t> length = GetVarint64(view.substr(0, varint_end), &lpos);
  if (!length.ok()) {
    poisoned_ = length.status();
    return poisoned_;
  }
  if (*length > limits_.max_payload_bytes) {
    poisoned_ = DataLossError(StrFormat("frame payload of %llu bytes exceeds the %zu-byte limit",
                                        static_cast<unsigned long long>(*length),
                                        limits_.max_payload_bytes));
    return poisoned_;
  }
  std::size_t total = varint_end + *length + 4;
  if (view.size() < total) {
    return std::optional<Frame>();
  }
  std::size_t consumed = 0;
  StatusOr<Frame> frame = DecodeFrame(view.substr(0, total), &consumed, limits_);
  if (!frame.ok()) {
    poisoned_ = frame.status();
    return poisoned_;
  }
  pos_ += consumed;
  CountRx(consumed);
  return std::optional<Frame>(std::move(*frame));
}

Status WriteFrame(Socket& socket, FrameType type, std::string_view payload,
                  std::uint8_t version) {
  if (fault::Enabled()) {
    CMIF_RETURN_IF_ERROR(fault::InjectPoint("net.write"));
    // A slow-loris sender: the frame still goes out, just late. Against the
    // blocking server this only slows one connection's own requests; the
    // reactor's partial-frame timeout is the real defense being exercised.
    CMIF_RETURN_IF_ERROR(fault::InjectPoint("net.slow_loris"));
  }
  std::string encoded = EncodeFrame(type, payload, version);
  if (fault::Enabled()) {
    // In-transit corruption: the receiver's CRC check turns it into a
    // structured kDataLoss and drops the connection.
    fault::MaybeCorrupt("net.frame_corrupt", encoded);
  }
  if (obs::Enabled()) {
    static obs::Counter& tx_bytes = obs::GetCounter("net.tx_bytes");
    static obs::Counter& tx_frames = obs::GetCounter("net.tx_frames");
    tx_bytes.Add(static_cast<std::int64_t>(encoded.size()));
    tx_frames.Add();
  }
  return socket.WriteAll(encoded);
}

StatusOr<std::optional<Frame>> ReadFrame(Socket& socket, const WireLimits& limits) {
  if (fault::Enabled()) {
    CMIF_RETURN_IF_ERROR(fault::InjectPoint("net.read"));
  }
  // Magic + version + type; a clean EOF here means the peer is simply done.
  char head[6];
  CMIF_ASSIGN_OR_RETURN(bool open, socket.ReadExactOrEof(head, sizeof(head)));
  if (!open) {
    return std::optional<Frame>();
  }
  std::size_t rx = sizeof(head);
  if (std::string_view(head, 4) != kFrameMagic) {
    return DataLossError("bad frame magic (expected \"CMIF\")");
  }
  std::uint8_t version = static_cast<std::uint8_t>(head[4]);
  CMIF_RETURN_IF_ERROR(CheckVersion(version, limits));
  CMIF_ASSIGN_OR_RETURN(FrameType type,
                        CheckFrameType(static_cast<std::uint8_t>(head[5]), version));
  std::uint32_t crc = Crc32(std::string_view(head + 4, 2));

  // Length varint, one byte at a time (it self-terminates).
  std::string length_bytes;
  std::uint64_t length = 0;
  for (std::size_t i = 0;; ++i) {
    if (i >= kMaxVarint64Bytes) {
      return DataLossError("frame length varint longer than 10 bytes");
    }
    char byte;
    CMIF_RETURN_IF_ERROR(socket.ReadExact(&byte, 1));
    ++rx;
    length_bytes.push_back(byte);
    if ((static_cast<std::uint8_t>(byte) & 0x80) == 0) {
      std::size_t pos = 0;
      CMIF_ASSIGN_OR_RETURN(length, GetVarint64(length_bytes, &pos));
      break;
    }
  }
  crc = Crc32Update(crc, length_bytes);
  if (length > limits.max_payload_bytes) {
    return DataLossError(StrFormat("frame payload of %llu bytes exceeds the %zu-byte limit",
                                   static_cast<unsigned long long>(length),
                                   limits.max_payload_bytes));
  }

  Frame frame;
  frame.type = type;
  frame.version = version;
  frame.payload.resize(length);
  if (length > 0) {
    CMIF_RETURN_IF_ERROR(socket.ReadExact(frame.payload.data(), length));
    rx += length;
    crc = Crc32Update(crc, frame.payload);
  }
  char stored[4];
  CMIF_RETURN_IF_ERROR(socket.ReadExact(stored, sizeof(stored)));
  rx += sizeof(stored);
  CountRx(rx);
  if (GetU32Le(stored) != crc) {
    return DataLossError(StrFormat("frame crc mismatch (stored %08x, computed %08x)",
                                   GetU32Le(stored), crc));
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace net
}  // namespace cmif
