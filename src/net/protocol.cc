#include "src/net/protocol.h"

#include "src/base/codec_util.h"
#include "src/base/string_util.h"
#include "src/base/varint.h"

namespace cmif {
namespace net {
namespace {

// Spans the wire accepts per response — a corrupted count cannot make the
// decoder allocate unboundedly, and a chatty server cannot flood a client.
constexpr std::uint64_t kMaxWireSpans = 4096;

StatusOr<StatusCode> CheckStatusCode(std::uint64_t raw) {
  if (raw > static_cast<std::uint64_t>(StatusCode::kUnavailable)) {
    return DataLossError(
        StrFormat("unknown status code %llu", static_cast<unsigned long long>(raw)));
  }
  return static_cast<StatusCode>(raw);
}

StatusOr<ServeOutcome> CheckOutcome(std::uint64_t raw) {
  if (raw > static_cast<std::uint64_t>(ServeOutcome::kFailed)) {
    return DataLossError(
        StrFormat("unknown serve outcome %llu", static_cast<unsigned long long>(raw)));
  }
  return static_cast<ServeOutcome>(raw);
}

}  // namespace

std::string EncodeRequest(const PresentRequest& request) {
  std::string out;
  PutString(out, request.document);
  PutString(out, request.profile);
  PutVarint64(out, request.channels.size());
  for (const std::string& channel : request.channels) {
    PutString(out, channel);
  }
  PutVarint64(out, request.want_body ? 1 : 0);
  PutVarint64(out, request.allow_degraded ? 1 : 0);
  PutVarint64(out, request.trace.trace_id);
  PutVarint64(out, request.trace.parent_span_id);
  PutVarint64(out, request.trace.sampled ? 1 : 0);
  PutVarint64(out, static_cast<std::uint64_t>(request.deadline_ms < 0 ? 0 : request.deadline_ms));
  PutVarint64(out, request.want_blocks ? 1 : 0);
  return out;
}

StatusOr<PresentRequest> DecodeRequest(std::string_view payload, std::uint8_t version) {
  CMIF_RETURN_IF_ERROR(CheckWireVersion(version));
  PresentRequest request;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(request.document, GetString(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.profile, GetString(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t channels, GetVarint64(payload, &pos));
  if (channels > payload.size()) {  // each selected channel costs >= 1 byte
    return DataLossError(StrFormat("channel count %llu exceeds payload size",
                                   static_cast<unsigned long long>(channels)));
  }
  request.channels.reserve(channels);
  for (std::uint64_t i = 0; i < channels; ++i) {
    CMIF_ASSIGN_OR_RETURN(std::string channel, GetString(payload, &pos));
    request.channels.push_back(std::move(channel));
  }
  CMIF_ASSIGN_OR_RETURN(request.want_body, GetBool(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.allow_degraded, GetBool(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.trace.trace_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.trace.parent_span_id, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(request.trace.sampled, GetBool(payload, &pos));
  if (request.trace.trace_id == 0 &&
      (request.trace.parent_span_id != 0 || request.trace.sampled)) {
    return DataLossError("trace fields set without a trace id");
  }
  CMIF_ASSIGN_OR_RETURN(std::uint64_t deadline, GetVarint64(payload, &pos));
  if (deadline > static_cast<std::uint64_t>(1) << 40) {  // > ~34 years is corruption
    return DataLossError(StrFormat("implausible deadline %llu ms",
                                   static_cast<unsigned long long>(deadline)));
  }
  request.deadline_ms = static_cast<std::int64_t>(deadline);
  CMIF_ASSIGN_OR_RETURN(request.want_blocks, GetBool(payload, &pos));
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return request;
}

std::string EncodeResponse(const PresentResponse& response) {
  // Sized up front: a blob delivery makes this a multi-megabyte string, and
  // growing it by doubling would briefly hold twice that.
  std::size_t estimate = 64 + response.error.message().size() + response.presentation.size() +
                         response.server_spans.size() * 64;
  for (const WireBlock& block : response.blocks) {
    estimate += 2 * kMaxVarint64Bytes + block.descriptor_id.size() + block.payload.size();
  }
  std::string out;
  out.reserve(estimate);
  PutVarint64(out, static_cast<std::uint64_t>(response.outcome));
  PutVarint64(out, static_cast<std::uint64_t>(response.attempts < 0 ? 0 : response.attempts));
  PutVarint64(out, response.cache_hit ? 1 : 0);
  PutVarint64(out, static_cast<std::uint64_t>(response.error.code()));
  PutString(out, response.error.message());
  PutString(out, response.presentation);
  PutVarint64(out, response.presentation_hash);
  PutVarint64(out, response.server_spans.size());
  for (const WireSpan& span : response.server_spans) {
    PutString(out, span.name);
    PutVarint64(out, span.id);
    PutVarint64(out, span.parent_id);
    PutVarint64(out, span.trace_id);
    PutF64(out, span.start_us);
    PutF64(out, span.duration_us);
    PutVarint64(out, static_cast<std::uint64_t>(span.tid < 0 ? 0 : span.tid));
  }
  PutVarint64(out, response.shed ? 1 : 0);
  PutF64(out, response.queue_ms < 0 ? 0 : response.queue_ms);
  PutVarint64(out, response.blocks.size());
  for (const WireBlock& block : response.blocks) {
    PutString(out, block.descriptor_id);
    PutString(out, block.payload);
  }
  return out;
}

StatusOr<PresentResponse> DecodeResponse(std::string_view payload, std::uint8_t version) {
  CMIF_RETURN_IF_ERROR(CheckWireVersion(version));
  PresentResponse response;
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(std::uint64_t outcome, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(response.outcome, CheckOutcome(outcome));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t attempts, GetVarint64(payload, &pos));
  if (attempts > 1u << 20) {
    return DataLossError(StrFormat("implausible attempt count %llu",
                                   static_cast<unsigned long long>(attempts)));
  }
  response.attempts = static_cast<int>(attempts);
  CMIF_ASSIGN_OR_RETURN(response.cache_hit, GetBool(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t code, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(StatusCode status_code, CheckStatusCode(code));
  CMIF_ASSIGN_OR_RETURN(std::string message, GetString(payload, &pos));
  response.error = Status(status_code, std::move(message));
  CMIF_ASSIGN_OR_RETURN(response.presentation, GetString(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(response.presentation_hash, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t span_count, GetVarint64(payload, &pos));
  // Each span costs >= 20 bytes on the wire (3 varints + 2 f64 + name + tid),
  // so a count beyond payload size (or the hard cap) is corruption.
  if (span_count > kMaxWireSpans || span_count > payload.size()) {
    return DataLossError(
        StrFormat("span count %llu exceeds bounds", static_cast<unsigned long long>(span_count)));
  }
  response.server_spans.reserve(span_count);
  for (std::uint64_t i = 0; i < span_count; ++i) {
    WireSpan span;
    CMIF_ASSIGN_OR_RETURN(span.name, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(span.id, GetVarint64(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(span.parent_id, GetVarint64(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(span.trace_id, GetVarint64(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(span.start_us, GetF64(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(span.duration_us, GetF64(payload, &pos));
    if (span.duration_us < 0) {
      return DataLossError(StrFormat("negative span duration at offset %zu", pos));
    }
    CMIF_ASSIGN_OR_RETURN(std::uint64_t tid, GetVarint64(payload, &pos));
    if (tid > 1u << 20) {
      return DataLossError(
          StrFormat("implausible span tid %llu", static_cast<unsigned long long>(tid)));
    }
    span.tid = static_cast<std::int32_t>(tid);
    response.server_spans.push_back(std::move(span));
  }
  CMIF_ASSIGN_OR_RETURN(response.shed, GetBool(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(response.queue_ms, GetF64(payload, &pos));
  if (response.queue_ms < 0) {
    return DataLossError(StrFormat("negative queue_ms at offset %zu", pos));
  }
  CMIF_ASSIGN_OR_RETURN(std::uint64_t block_count, GetVarint64(payload, &pos));
  // Each block costs >= 2 bytes on the wire (two length prefixes), so a
  // count beyond payload size (or the hard cap) is corruption.
  if (block_count > kMaxWireBlocks || block_count > payload.size()) {
    return DataLossError(StrFormat("block count %llu exceeds bounds",
                                   static_cast<unsigned long long>(block_count)));
  }
  response.blocks.reserve(block_count);
  for (std::uint64_t i = 0; i < block_count; ++i) {
    WireBlock block;
    CMIF_ASSIGN_OR_RETURN(block.descriptor_id, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(block.payload, GetString(payload, &pos));
    response.blocks.push_back(std::move(block));
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return response;
}

namespace {

// Shared batch plumbing: varint count, then each message length-prefixed.
template <typename Message, typename Encode>
std::string EncodeBatch(const std::vector<Message>& messages, Encode&& encode) {
  std::string out;
  PutVarint64(out, messages.size());
  for (const Message& message : messages) {
    PutString(out, encode(message));
  }
  return out;
}

template <typename Message, typename Decode>
StatusOr<std::vector<Message>> DecodeBatch(std::string_view payload, std::uint8_t version,
                                           std::string_view what, Decode&& decode) {
  CMIF_RETURN_IF_ERROR(CheckWireVersion(version));
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(std::uint64_t count, GetVarint64(payload, &pos));
  // Each message costs >= 1 byte on the wire, so a count beyond payload size
  // (or the hard cap) is corruption, not a big batch.
  if (count > kMaxBatchMessages || count > payload.size()) {
    return DataLossError(StrFormat("batch %.*s count %llu exceeds bounds",
                                   static_cast<int>(what.size()), what.data(),
                                   static_cast<unsigned long long>(count)));
  }
  std::vector<Message> messages;
  messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CMIF_ASSIGN_OR_RETURN(std::string encoded, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(Message message, decode(encoded));
    messages.push_back(std::move(message));
  }
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  return messages;
}

}  // namespace

std::string EncodeBatchRequest(const std::vector<PresentRequest>& requests) {
  return EncodeBatch(requests, EncodeRequest);
}

StatusOr<std::vector<PresentRequest>> DecodeBatchRequest(std::string_view payload,
                                                         std::uint8_t version) {
  return DecodeBatch<PresentRequest>(payload, version, "request", [](std::string_view bytes) {
    return DecodeRequest(bytes);
  });
}

std::string EncodeBatchResponse(const std::vector<PresentResponse>& responses) {
  return EncodeBatch(responses, EncodeResponse);
}

StatusOr<std::vector<PresentResponse>> DecodeBatchResponse(std::string_view payload,
                                                           std::uint8_t version) {
  return DecodeBatch<PresentResponse>(payload, version, "response", [](std::string_view bytes) {
    return DecodeResponse(bytes);
  });
}

std::string EncodeWireStatus(const Status& status) {
  std::string out;
  PutVarint64(out, static_cast<std::uint64_t>(status.code()));
  PutString(out, status.message());
  return out;
}

Status DecodeWireStatus(std::string_view payload, Status* decoded) {
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(std::uint64_t code, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(StatusCode status_code, CheckStatusCode(code));
  CMIF_ASSIGN_OR_RETURN(std::string message, GetString(payload, &pos));
  CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
  *decoded = Status(status_code, std::move(message));
  return Status::Ok();
}

}  // namespace net
}  // namespace cmif
