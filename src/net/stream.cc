#include "src/net/stream.h"

#include <algorithm>

#include "src/base/codec_util.h"
#include "src/base/string_util.h"
#include "src/base/varint.h"

namespace cmif {
namespace net {
namespace {

// Plausibility caps: a corrupted varint must fail structurally, not turn
// into an unbounded allocation or an absurd-but-parseable message.
constexpr std::uint64_t kMaxPlausibleChunks = 1ull << 40;
constexpr std::uint64_t kMaxPlausibleBlockBytes = 1ull << 40;

}  // namespace

std::string EncodeStreamRequest(const StreamRequest& request, std::uint8_t version) {
  std::string out;
  PutString(out, EncodeRequest(request.request, version));
  PutVarint64(out, request.chunk_bytes);
  PutVarint64(out, request.resume_stream_id);
  PutVarint64(out, request.resume_chunks);
  return out;
}

StatusOr<StreamRequest> DecodeStreamRequest(std::string_view payload, std::uint8_t version) {
  StreamRequest request;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(std::string inner, GetString(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.request, DecodeRequest(inner, version));
  CMIF_ASSIGN_OR_RETURN(request.chunk_bytes, GetVarint64(payload, &pos));
  // The server clamps small requests up to kMinChunkBytes; zero or beyond
  // the hard ceiling is corruption, not a preference.
  if (request.chunk_bytes == 0 || request.chunk_bytes > kMaxChunkBytes) {
    return DataLossError(StrFormat("implausible chunk size %llu",
                                   static_cast<unsigned long long>(request.chunk_bytes)));
  }
  CMIF_ASSIGN_OR_RETURN(request.resume_stream_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.resume_chunks, GetVarint64(payload, &pos));
  if (request.resume_chunks > kMaxPlausibleChunks) {
    return DataLossError(StrFormat("implausible resume chunk count %llu",
                                   static_cast<unsigned long long>(request.resume_chunks)));
  }
  if (request.resume_stream_id == 0 && request.resume_chunks != 0) {
    return DataLossError("resume chunk count without a stream id");
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return request;
}

std::string EncodeStreamBegin(const StreamBegin& begin, std::uint8_t version) {
  std::string out;
  PutVarint64(out, begin.stream_id);
  PutString(out, EncodeResponse(begin.prefix, version));
  PutVarint64(out, begin.manifest.size());
  for (const StreamBlockInfo& info : begin.manifest) {
    PutString(out, info.descriptor_id);
    PutVarint64(out, info.bytes);
    PutMediaTime(out, info.first_need);
  }
  PutVarint64(out, begin.chunk_bytes);
  PutVarint64(out, begin.total_chunks);
  PutVarint64(out, begin.payload_hash);
  PutVarint64(out, begin.resumed_from);
  return out;
}

StatusOr<StreamBegin> DecodeStreamBegin(std::string_view payload, std::uint8_t version) {
  StreamBegin begin;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(begin.stream_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::string inner, GetString(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(begin.prefix, DecodeResponse(inner, version));
  if (!begin.prefix.blocks.empty()) {
    return DataLossError("stream prefix carries inline blocks");
  }
  CMIF_ASSIGN_OR_RETURN(std::uint64_t count, GetVarint64(payload, &pos));
  // Each manifest entry costs >= 4 bytes on the wire, so a count beyond
  // payload size (or the hard cap) is corruption.
  if (count > kMaxStreamBlocks || count > payload.size()) {
    return DataLossError(StrFormat("manifest block count %llu exceeds bounds",
                                   static_cast<unsigned long long>(count)));
  }
  begin.manifest.reserve(count);
  std::uint64_t total_bytes = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    StreamBlockInfo info;
    CMIF_ASSIGN_OR_RETURN(info.descriptor_id, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(info.bytes, GetVarint64(payload, &pos));
    if (info.bytes > kMaxPlausibleBlockBytes) {
      return DataLossError(StrFormat("implausible block size %llu at offset %zu",
                                     static_cast<unsigned long long>(info.bytes), pos));
    }
    CMIF_ASSIGN_OR_RETURN(info.first_need, GetMediaTime(payload, &pos));
    if (info.first_need.is_negative()) {
      return DataLossError(StrFormat("negative first-need time at offset %zu", pos));
    }
    total_bytes += info.bytes;
    begin.manifest.push_back(std::move(info));
  }
  CMIF_ASSIGN_OR_RETURN(begin.chunk_bytes, GetVarint64(payload, &pos));
  if (begin.chunk_bytes < kMinChunkBytes || begin.chunk_bytes > kMaxChunkBytes) {
    return DataLossError(StrFormat("chunk size %llu outside [%llu, %llu]",
                                   static_cast<unsigned long long>(begin.chunk_bytes),
                                   static_cast<unsigned long long>(kMinChunkBytes),
                                   static_cast<unsigned long long>(kMaxChunkBytes)));
  }
  CMIF_ASSIGN_OR_RETURN(begin.total_chunks, GetVarint64(payload, &pos));
  if (begin.total_chunks != StreamChunkCount(total_bytes, begin.chunk_bytes)) {
    return DataLossError(StrFormat("chunk count %llu disagrees with the manifest (%llu bytes)",
                                   static_cast<unsigned long long>(begin.total_chunks),
                                   static_cast<unsigned long long>(total_bytes)));
  }
  CMIF_ASSIGN_OR_RETURN(begin.payload_hash, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(begin.resumed_from, GetVarint64(payload, &pos));
  if (begin.resumed_from > begin.total_chunks) {
    return DataLossError(StrFormat("resume point %llu past the %llu-chunk stream",
                                   static_cast<unsigned long long>(begin.resumed_from),
                                   static_cast<unsigned long long>(begin.total_chunks)));
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return begin;
}

std::string EncodeStreamChunk(const StreamChunk& chunk, std::uint8_t version) {
  (void)version;
  std::string out;
  PutVarint64(out, chunk.stream_id);
  PutVarint64(out, chunk.chunk_index);
  PutString(out, chunk.payload);
  return out;
}

std::string EncodeStreamChunkFrame(std::uint64_t stream_id, std::uint64_t chunk_index,
                                   std::string_view payload, std::uint8_t version) {
  // The message fields ahead of the payload bytes, laid out as
  // EncodeStreamChunk lays them out (PutString = varint length + bytes).
  std::string header;
  PutVarint64(header, stream_id);
  PutVarint64(header, chunk_index);
  PutVarint64(header, payload.size());
  return EncodeFrameParts(FrameType::kStreamChunk, {header, payload}, version);
}

StatusOr<StreamChunk> DecodeStreamChunk(std::string_view payload, std::uint8_t version) {
  (void)version;
  StreamChunk chunk;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(chunk.stream_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(chunk.chunk_index, GetVarint64(payload, &pos));
  if (chunk.chunk_index > kMaxPlausibleChunks) {
    return DataLossError(StrFormat("implausible chunk index %llu",
                                   static_cast<unsigned long long>(chunk.chunk_index)));
  }
  CMIF_ASSIGN_OR_RETURN(chunk.payload, GetString(payload, &pos));
  if (chunk.payload.empty() || chunk.payload.size() > kMaxChunkBytes) {
    return DataLossError(StrFormat("chunk payload of %zu bytes outside (0, %llu]",
                                   chunk.payload.size(),
                                   static_cast<unsigned long long>(kMaxChunkBytes)));
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return chunk;
}

std::string EncodeStreamAck(const StreamAck& ack, std::uint8_t version) {
  (void)version;
  std::string out;
  PutVarint64(out, ack.stream_id);
  PutVarint64(out, ack.chunks_received);
  PutVarint64(out, ack.stalls);
  return out;
}

StatusOr<StreamAck> DecodeStreamAck(std::string_view payload, std::uint8_t version) {
  (void)version;
  StreamAck ack;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(ack.stream_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(ack.chunks_received, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(ack.stalls, GetVarint64(payload, &pos));
  if (ack.chunks_received > kMaxPlausibleChunks || ack.stalls > kMaxPlausibleChunks) {
    return DataLossError("implausible ack counters");
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return ack;
}

std::string EncodeStreamEnd(const StreamEnd& end, std::uint8_t version) {
  (void)version;
  std::string out;
  PutVarint64(out, end.stream_id);
  PutVarint64(out, end.total_chunks);
  PutVarint64(out, end.payload_hash);
  return out;
}

StatusOr<StreamEnd> DecodeStreamEnd(std::string_view payload, std::uint8_t version) {
  (void)version;
  StreamEnd end;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(end.stream_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(end.total_chunks, GetVarint64(payload, &pos));
  if (end.total_chunks > kMaxPlausibleChunks) {
    return DataLossError(StrFormat("implausible chunk count %llu",
                                   static_cast<unsigned long long>(end.total_chunks)));
  }
  CMIF_ASSIGN_OR_RETURN(end.payload_hash, GetVarint64(payload, &pos));
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return end;
}

std::uint64_t StreamChunkCount(std::uint64_t total_bytes, std::uint64_t chunk_bytes) {
  return total_bytes == 0 ? 0 : (total_bytes + chunk_bytes - 1) / chunk_bytes;
}

std::uint64_t DeriveStreamId(std::uint64_t presentation_hash, std::uint64_t payload_hash,
                             std::uint64_t chunk_bytes) {
  std::uint64_t id = Fnv1a64("cmif-stream");
  id = Fnv1a64Combine(id, presentation_hash);
  id = Fnv1a64Combine(id, payload_hash);
  id = Fnv1a64Combine(id, chunk_bytes);
  // 0 means "no stream" in resume fields; nudge the (astronomically
  // unlikely) collision off it.
  return id == 0 ? 1 : id;
}

Status StreamReassembler::Begin(const StreamBegin& begin, std::string resumed_payload) {
  std::uint64_t total_bytes = 0;
  for (const StreamBlockInfo& info : begin.manifest) {
    total_bytes += info.bytes;
  }
  // The prefix for chunk boundary k is k * chunk_bytes, except that the
  // final chunk may be short: a client that held every chunk but lost the
  // connection before kStreamEnd resumes with exactly total_bytes.
  const std::uint64_t expected_prefix =
      std::min(begin.resumed_from * begin.chunk_bytes, total_bytes);
  if (begin.resumed_from > begin.total_chunks ||
      resumed_payload.size() != expected_prefix) {
    return DataLossError(StrFormat("resume prefix of %zu bytes disagrees with chunk %llu boundary",
                                   resumed_payload.size(),
                                   static_cast<unsigned long long>(begin.resumed_from)));
  }
  begun_ = true;
  stream_id_ = begin.stream_id;
  chunk_bytes_ = begin.chunk_bytes;
  total_chunks_ = begin.total_chunks;
  total_bytes_ = total_bytes;
  payload_hash_ = begin.payload_hash;
  chunks_received_ = begin.resumed_from;
  manifest_ = begin.manifest;
  payload_ = std::move(resumed_payload);
  return Status::Ok();
}

Status StreamReassembler::Feed(const StreamChunk& chunk) {
  if (!begun_) {
    return FailedPreconditionError("chunk before stream begin");
  }
  if (chunk.stream_id != stream_id_) {
    return DataLossError(StrFormat("chunk for stream %016llx on stream %016llx",
                                   static_cast<unsigned long long>(chunk.stream_id),
                                   static_cast<unsigned long long>(stream_id_)));
  }
  if (chunk.chunk_index != chunks_received_) {
    return DataLossError(StrFormat("chunk %llu out of order (expected %llu)",
                                   static_cast<unsigned long long>(chunk.chunk_index),
                                   static_cast<unsigned long long>(chunks_received_)));
  }
  if (chunk.chunk_index >= total_chunks_) {
    return DataLossError(StrFormat("chunk %llu past the %llu-chunk stream",
                                   static_cast<unsigned long long>(chunk.chunk_index),
                                   static_cast<unsigned long long>(total_chunks_)));
  }
  std::uint64_t expected = chunk.chunk_index + 1 == total_chunks_
                               ? total_bytes_ - (total_chunks_ - 1) * chunk_bytes_
                               : chunk_bytes_;
  if (chunk.payload.size() != expected) {
    return DataLossError(StrFormat("chunk %llu carries %zu bytes (expected %llu)",
                                   static_cast<unsigned long long>(chunk.chunk_index),
                                   chunk.payload.size(),
                                   static_cast<unsigned long long>(expected)));
  }
  payload_.append(chunk.payload);
  ++chunks_received_;
  return Status::Ok();
}

StatusOr<std::vector<WireBlock>> StreamReassembler::Finish(const StreamEnd& end) const {
  if (!begun_ || !complete()) {
    return FailedPreconditionError(StrFormat("stream incomplete (%llu of %llu chunks)",
                                             static_cast<unsigned long long>(chunks_received_),
                                             static_cast<unsigned long long>(total_chunks_)));
  }
  if (end.stream_id != stream_id_ || end.total_chunks != total_chunks_ ||
      end.payload_hash != payload_hash_) {
    return DataLossError("stream trailer disagrees with stream begin");
  }
  if (payload_.size() != total_bytes_) {
    return DataLossError(StrFormat("reassembled %zu bytes (manifest declares %llu)",
                                   payload_.size(),
                                   static_cast<unsigned long long>(total_bytes_)));
  }
  if (Fnv1a64(payload_) != payload_hash_) {
    return DataLossError("stream payload hash mismatch after reassembly");
  }
  std::vector<WireBlock> blocks;
  blocks.reserve(manifest_.size());
  std::size_t offset = 0;
  for (const StreamBlockInfo& info : manifest_) {
    WireBlock block;
    block.descriptor_id = info.descriptor_id;
    block.payload = payload_.substr(offset, info.bytes);
    offset += info.bytes;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace net
}  // namespace cmif
