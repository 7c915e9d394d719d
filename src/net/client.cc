#include "src/net/client.h"

#include <utility>

#include "src/base/string_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace cmif {
namespace net {

NetClient::NetClient(NetClientOptions options) : options_(std::move(options)) {}

void NetClient::Disconnect() { socket_.Close(); }

Status NetClient::EnsureConnected() {
  if (socket_.valid()) {
    return Status::Ok();
  }
  CMIF_ASSIGN_OR_RETURN(socket_,
                        ConnectTcp(options_.host, options_.port, options_.io_timeout_ms));
  if (ever_connected_) {
    ++reconnects_;
    if (obs::Enabled()) {
      static obs::Counter& reconnects = obs::GetCounter("net.client.reconnects");
      reconnects.Add();
    }
  }
  ever_connected_ = true;
  return Status::Ok();
}

StatusOr<Frame> NetClient::RoundTripOnce(FrameType type, const std::string& payload) {
  CMIF_RETURN_IF_ERROR(EnsureConnected());
  Status written = WriteFrame(socket_, type, payload);
  if (!written.ok()) {
    Disconnect();
    return written.code() == StatusCode::kUnavailable
               ? written
               : UnavailableError("send failed: " + written.ToString());
  }
  StatusOr<std::optional<Frame>> frame = ReadFrame(socket_, options_.limits);
  if (!frame.ok()) {
    // kDataLoss here means a corrupt inbound frame: the stream is
    // desynchronized, so reconnecting (and resending) is the only recovery —
    // map it to kUnavailable to make the retry wrapper do exactly that.
    Disconnect();
    return UnavailableError("receive failed: " + frame.status().ToString());
  }
  if (!frame->has_value()) {
    Disconnect();
    return UnavailableError("connection closed by server");
  }
  if ((*frame)->type == FrameType::kError) {
    return ErrorFrameStatus(**frame);
  }
  return *std::move(*frame);
}

Status NetClient::ErrorFrameStatus(const Frame& frame) {
  // kError always precedes a server-side drop; don't reuse the stream.
  Disconnect();
  Status wire_status;
  CMIF_RETURN_IF_ERROR(DecodeWireStatus(frame.payload, &wire_status));
  if (wire_status.code() == StatusCode::kDataLoss) {
    // The server saw a corrupt frame — ours was damaged in transit.
    return UnavailableError("request corrupted in transit: " + wire_status.ToString());
  }
  return wire_status.ok() ? InternalError("server sent an OK error frame") : wire_status;
}

StatusOr<Frame> NetClient::RoundTrip(FrameType type, const std::string& payload) {
  std::uint64_t salt = Fnv1a64(payload);
  return fault::Retry(
      options_.retry, [&] { return RoundTripOnce(type, payload); }, salt);
}

StatusOr<PresentResponse> NetClient::Present(const PresentRequest& request) {
  obs::ScopedLatency latency("net.client.request_ms");
  if (!request.trace.valid()) {
    CMIF_ASSIGN_OR_RETURN(Frame frame, RoundTrip(FrameType::kRequest, EncodeRequest(request)));
    return DecodePresentFrame(std::move(frame));
  }
  // Traced path: install the context, wrap the round trip in a client span,
  // and point the server at that span so its harvested spans nest under it.
  obs::ScopedTrace scoped_trace(request.trace);
  obs::Span span("net-client-request");
  PresentRequest traced = request;
  if (span.id() != 0) {
    traced.trace.parent_span_id = span.id();
  }
  span.Annotate("document", request.document);
  CMIF_ASSIGN_OR_RETURN(Frame frame, RoundTrip(FrameType::kRequest, EncodeRequest(traced)));
  StatusOr<PresentResponse> response = DecodePresentFrame(std::move(frame));
  if (response.ok()) {
    span.Annotate("server_spans", response->server_spans.size());
  }
  return response;
}

StatusOr<PresentResponse> NetClient::DecodePresentFrame(Frame frame) {
  if (frame.type != FrameType::kResponse) {
    Disconnect();
    return InternalError(StrFormat("expected a response frame, got %s",
                                   std::string(FrameTypeName(frame.type)).c_str()));
  }
  StatusOr<PresentResponse> response = DecodeResponse(frame.payload);
  if (!response.ok()) {
    Disconnect();  // CRC passed but the message is malformed
  }
  return response;
}

StatusOr<std::vector<PresentResponse>> NetClient::PresentBatch(
    const std::vector<PresentRequest>& requests) {
  if (requests.size() > kMaxBatchMessages) {
    return InvalidArgumentError(
        StrFormat("batch of %zu exceeds kMaxBatchMessages", requests.size()));
  }
  obs::ScopedLatency latency("net.client.batch_ms");
  CMIF_ASSIGN_OR_RETURN(Frame frame,
                        RoundTrip(FrameType::kBatchRequest, EncodeBatchRequest(requests)));
  if (frame.type != FrameType::kBatchResponse) {
    Disconnect();
    return InternalError(StrFormat("expected a batch-response frame, got %s",
                                   std::string(FrameTypeName(frame.type)).c_str()));
  }
  StatusOr<std::vector<PresentResponse>> responses = DecodeBatchResponse(frame.payload);
  if (!responses.ok()) {
    Disconnect();
    return responses.status();
  }
  if (responses->size() != requests.size()) {
    Disconnect();
    return InternalError(StrFormat("batch answered %zu of %zu requests",
                                   responses->size(), requests.size()));
  }
  return responses;
}

StatusOr<StatsSnapshot> NetClient::FetchStats() {
  CMIF_ASSIGN_OR_RETURN(Frame frame, RoundTrip(FrameType::kStatsRequest, ""));
  if (frame.type != FrameType::kStatsResponse) {
    Disconnect();
    return InternalError(StrFormat("expected a stats-response frame, got %s",
                                   std::string(FrameTypeName(frame.type)).c_str()));
  }
  StatusOr<StatsSnapshot> snapshot = DecodeStatsSnapshot(frame.payload);
  if (!snapshot.ok()) {
    Disconnect();
  }
  return snapshot;
}

StatusOr<StreamResult> NetClient::PresentStream(const PresentRequest& request,
                                                std::uint64_t chunk_bytes) {
  obs::ScopedLatency latency("net.client.stream_ms");
  StreamResult result;
  // Resume state carried across reconnects: the stream id, the contiguous
  // chunk count, and the byte prefix those chunks carried.
  std::uint64_t resume_stream_id = 0;
  std::uint64_t resume_chunks = 0;
  std::string resume_payload;
  const int budget = options_.retry.max_attempts < 1 ? 1 : options_.retry.max_attempts;
  Status last = UnavailableError("stream never attempted");
  for (int attempt = 0; attempt < budget; ++attempt) {
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      last = connected;
      continue;
    }
    StreamRequest open;
    open.request = request;
    open.request.want_blocks = false;  // chunks are the delivery path
    open.chunk_bytes = chunk_bytes;
    open.resume_stream_id = resume_stream_id;
    open.resume_chunks = resume_chunks;
    Status written = WriteFrame(socket_, FrameType::kStreamRequest, EncodeStreamRequest(open));
    if (!written.ok()) {
      Disconnect();
      last = written;
      continue;
    }
    StatusOr<std::optional<Frame>> first = ReadFrame(socket_, options_.limits);
    if (!first.ok() || !first->has_value()) {
      Disconnect();
      last = UnavailableError(first.ok() ? "connection closed by server"
                                         : "receive failed: " + first.status().ToString());
      continue;
    }
    Frame frame = *std::move(*first);
    if (frame.type == FrameType::kError) {
      // Requests are idempotent, so a stream request corrupted in transit
      // is simply asked again; the resume state still names good bytes.
      Status refused = ErrorFrameStatus(frame);
      if (!fault::IsRetryable(refused)) {
        return refused;
      }
      last = refused;
      continue;
    }
    if (frame.type == FrameType::kResponse) {
      // The server's own fallback: nothing streamable behind this request
      // (failed/shed outcomes travel as a plain response).
      StatusOr<PresentResponse> response = DecodeResponse(frame.payload);
      if (!response.ok()) {
        Disconnect();
        last = UnavailableError("malformed fallback response: " +
                                response.status().ToString());
        continue;
      }
      result.response = *std::move(response);
      result.streamed = false;
      return result;
    }
    if (frame.type != FrameType::kStreamBegin) {
      Disconnect();
      last = UnavailableError(StrFormat("expected a stream-begin frame, got %s",
                                        std::string(FrameTypeName(frame.type)).c_str()));
      continue;
    }
    StatusOr<StreamBegin> begin = DecodeStreamBegin(frame.payload);
    if (!begin.ok()) {
      Disconnect();
      resume_stream_id = 0;
      resume_chunks = 0;
      resume_payload.clear();
      last = UnavailableError("malformed stream-begin: " + begin.status().ToString());
      continue;
    }
    const bool resumed = begin->stream_id == resume_stream_id &&
                         begin->resumed_from == resume_chunks && resume_chunks > 0;
    StreamReassembler reassembler;
    Status begun =
        reassembler.Begin(*begin, resumed ? std::move(resume_payload) : std::string());
    if (!begun.ok()) {
      Disconnect();
      resume_stream_id = 0;
      resume_chunks = 0;
      resume_payload.clear();
      last = UnavailableError("stream-begin rejected: " + begun.ToString());
      continue;
    }
    if (resumed) {
      ++result.resumes;
    }

    bool integrity_failed = false;
    Status stream_error = Status::Ok();
    while (true) {
      StatusOr<std::optional<Frame>> next = ReadFrame(socket_, options_.limits);
      if (!next.ok() || !next->has_value()) {
        stream_error = UnavailableError(next.ok() ? "stream cut by server"
                                                  : "receive failed: " +
                                                        next.status().ToString());
        break;
      }
      Frame data = *std::move(*next);
      if (data.type == FrameType::kStreamChunk) {
        StatusOr<StreamChunk> chunk = DecodeStreamChunk(data.payload);
        if (!chunk.ok()) {
          stream_error = UnavailableError("malformed chunk: " + chunk.status().ToString());
          break;
        }
        Status fed = reassembler.Feed(*chunk);
        if (!fed.ok()) {
          stream_error = UnavailableError("chunk rejected: " + fed.ToString());
          break;
        }
        result.bytes_streamed += chunk->payload.size();
        continue;
      }
      if (data.type == FrameType::kStreamEnd) {
        StatusOr<StreamEnd> end = DecodeStreamEnd(data.payload);
        if (!end.ok()) {
          stream_error = UnavailableError("malformed trailer: " + end.status().ToString());
          break;
        }
        StatusOr<std::vector<WireBlock>> blocks = reassembler.Finish(*end);
        if (!blocks.ok()) {
          // The end-to-end hash (or manifest cross-check) failed: some chunk
          // carried corrupt bytes that every frame CRC missed. Resuming
          // would replay them — restart from chunk 0.
          integrity_failed = true;
          stream_error = blocks.status();
          break;
        }
        result.response = std::move(begin->prefix);
        result.blocks = *std::move(blocks);
        result.streamed = true;
        result.stream_id = begin->stream_id;
        result.chunks_received = reassembler.chunks_received();
        // Best-effort delivery telemetry; a lost ack harms nothing. Stalls
        // are always zero here — playback has not run yet; the caller
        // reports them later via ReportStreamStalls.
        StreamAck ack;
        ack.stream_id = begin->stream_id;
        ack.chunks_received = reassembler.chunks_received();
        (void)WriteFrame(socket_, FrameType::kStreamAck, EncodeStreamAck(ack));
        return result;
      }
      stream_error = UnavailableError(StrFormat("unexpected %s frame mid-stream",
                                                std::string(FrameTypeName(data.type)).c_str()));
      break;
    }
    Disconnect();
    last = stream_error;
    if (integrity_failed) {
      resume_stream_id = 0;
      resume_chunks = 0;
      resume_payload.clear();
      ++result.restarts;
    } else {
      resume_stream_id = begin->stream_id;
      resume_chunks = reassembler.chunks_received();
      resume_payload = reassembler.bytes();
    }
  }
  return last.ok() ? UnavailableError("stream retry budget exhausted") : last;
}

Status NetClient::ReportStreamStalls(std::uint64_t stream_id, std::uint64_t stalls) {
  if (stream_id == 0) {
    return InvalidArgumentError("stall report without a stream id (blob fallback?)");
  }
  CMIF_RETURN_IF_ERROR(EnsureConnected());
  StreamAck ack;
  ack.stream_id = stream_id;
  ack.stalls = stalls;
  Status written = WriteFrame(socket_, FrameType::kStreamAck, EncodeStreamAck(ack));
  if (!written.ok()) {
    Disconnect();
  }
  return written;
}

Status NetClient::Ping() {
  CMIF_ASSIGN_OR_RETURN(Frame frame, RoundTrip(FrameType::kPing, "cmif-ping"));
  if (frame.type != FrameType::kPong || frame.payload != "cmif-ping") {
    Disconnect();
    return InternalError("malformed pong");
  }
  return Status::Ok();
}

}  // namespace net
}  // namespace cmif
