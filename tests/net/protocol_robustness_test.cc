// The protocol messages' robustness contract: request/response/status
// payloads round-trip exactly, and every single-byte mutation or truncation
// of a valid encoding either round-trips to the identical message (a flip
// inside a string body changes only that string's bytes) or fails as a
// structured kDataLoss — never a crash, an allocation blow-up, or a
// silently mis-fielded message.
#include "src/net/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace cmif {
namespace net {
namespace {

PresentRequest SampleRequest() {
  PresentRequest request;
  request.document = "news-3-s2";
  request.profile = "portable";
  request.channels = {"video", "caption"};
  request.want_body = false;
  request.allow_degraded = false;
  request.trace.trace_id = 0x1122334455667788ull;
  request.trace.parent_span_id = 42;
  request.trace.sampled = true;
  request.deadline_ms = 150;  // a two-byte varint in every sweep below
  return request;
}

PresentResponse SampleResponse() {
  PresentResponse response;
  response.outcome = ServeOutcome::kDegraded;
  response.attempts = 3;
  response.cache_hit = true;
  response.error = UnavailableError("compile failed under chaos");
  response.presentation = "(presentation\n (map)\n)";
  response.presentation_hash = 0x0123456789abcdefull;
  WireSpan span;
  span.name = "net-request";
  span.id = 2;
  span.parent_id = 1;
  span.trace_id = 0x1122334455667788ull;
  span.start_us = 1250.5;
  span.duration_us = 310.25;
  span.tid = 3;
  response.server_spans.push_back(span);
  span.name = "pipeline";
  span.id = 5;
  span.parent_id = 2;
  span.start_us = 1300.0;
  span.duration_us = 200.0;
  response.server_spans.push_back(span);
  return response;
}

TEST(ProtocolTest, RequestRoundTrip) {
  PresentRequest request = SampleRequest();
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->document, request.document);
  EXPECT_EQ(decoded->profile, request.profile);
  EXPECT_EQ(decoded->channels, request.channels);
  EXPECT_EQ(decoded->want_body, request.want_body);
  EXPECT_EQ(decoded->allow_degraded, request.allow_degraded);
  EXPECT_EQ(decoded->trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded->trace.parent_span_id, request.trace.parent_span_id);
  EXPECT_EQ(decoded->trace.sampled, request.trace.sampled);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
}

TEST(ProtocolTest, DefaultRequestRoundTrip) {
  auto decoded = DecodeRequest(EncodeRequest(PresentRequest{}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->document.empty());
  EXPECT_TRUE(decoded->channels.empty());
  EXPECT_TRUE(decoded->want_body);
  EXPECT_TRUE(decoded->allow_degraded);
  EXPECT_FALSE(decoded->trace.valid());
  EXPECT_FALSE(decoded->trace.sampled);
}

TEST(ProtocolTest, TraceContextEncodingGolden) {
  // The wire layout of the trace fields, byte for byte — a silent
  // re-ordering or re-encoding would break mixed-build tracing even though
  // same-build round-trips still pass.
  PresentRequest request;
  request.document = "d";
  request.trace.trace_id = 42;
  request.trace.parent_span_id = 7;
  request.trace.sampled = true;
  std::string encoded = EncodeRequest(request);
  const std::string expected(
      "\x01"
      "d"
      "\x00"          // profile ""
      "\x00"          // channel count 0
      "\x01"          // want_body
      "\x01"          // allow_degraded
      "\x2a"          // trace_id 42
      "\x07"          // parent_span_id 7
      "\x01"          // sampled
      "\x00"          // deadline_ms 0
      "\x00",         // want_blocks
      11);
  EXPECT_EQ(encoded, expected);
}

TEST(ProtocolTest, DeadlineEncodingGoldenV3) {
  // The relative deadline is one varint after the trace fields (where
  // version 3 put it), followed only by the want_blocks flag.
  PresentRequest request;
  request.document = "d";
  request.trace.trace_id = 42;
  request.trace.parent_span_id = 7;
  request.trace.sampled = true;
  request.deadline_ms = 300;
  std::string encoded = EncodeRequest(request);
  const std::string expected(
      "\x01"
      "d"
      "\x00"          // profile ""
      "\x00"          // channel count 0
      "\x01"          // want_body
      "\x01"          // allow_degraded
      "\x2a"          // trace_id 42
      "\x07"          // parent_span_id 7
      "\x01"          // sampled
      "\xac\x02",     // deadline_ms 300 (LEB128)
      11);
  EXPECT_EQ(encoded, expected + std::string(1, '\x00'));  // + want_blocks
}

TEST(ProtocolTest, VersionedDecodeIsStructural) {
  // An older layout is never mis-fielded as the current one: a v3 request
  // (the current layout without want_blocks) is truncated to the decoder,
  // and the current payload declared as v3 is refused outright.
  PresentRequest request = SampleRequest();
  request.deadline_ms = 25;
  std::string current = EncodeRequest(request);
  std::string v3 = current.substr(0, current.size() - 1);
  EXPECT_EQ(DecodeRequest(v3).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRequest(current, /*version=*/3).status().code(), StatusCode::kDataLoss);
  auto decoded = DecodeRequest(current, kWireVersion);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->deadline_ms, 25);
}

TEST(ProtocolTest, ResponseShedFieldsRoundTripV3) {
  PresentResponse response;
  response.outcome = ServeOutcome::kFailed;
  response.error = ResourceExhaustedError("scheduler queue full");
  response.shed = true;
  response.queue_ms = 12.5;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->shed);
  EXPECT_EQ(decoded->queue_ms, 12.5);
  EXPECT_EQ(decoded->error.code(), StatusCode::kResourceExhausted);
}

TEST(ProtocolTest, ResponseServerSpansRoundTrip) {
  PresentResponse response = SampleResponse();
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->server_spans.size(), response.server_spans.size());
  for (std::size_t i = 0; i < response.server_spans.size(); ++i) {
    const WireSpan& expect = response.server_spans[i];
    const WireSpan& got = decoded->server_spans[i];
    EXPECT_EQ(got.name, expect.name) << i;
    EXPECT_EQ(got.id, expect.id) << i;
    EXPECT_EQ(got.parent_id, expect.parent_id) << i;
    EXPECT_EQ(got.trace_id, expect.trace_id) << i;
    EXPECT_EQ(got.start_us, expect.start_us) << i;  // f64 bit pattern: exact
    EXPECT_EQ(got.duration_us, expect.duration_us) << i;
    EXPECT_EQ(got.tid, expect.tid) << i;
  }
}

TEST(ProtocolRobustnessTest, TraceFieldsWithoutIdAreRejected) {
  // parent/sampled without a trace id cannot be produced by an honest
  // encoder; a decoder that accepted them would let spans dangle.
  PresentRequest request;
  request.document = "d";
  std::string encoded = EncodeRequest(request);
  // The deadline and want_blocks varints trail the trace fields.
  char& sampled = encoded[encoded.size() - 3];
  ASSERT_EQ(sampled, '\x00');  // sampled=false
  sampled = '\x01';            // sampled without a trace id
  EXPECT_EQ(DecodeRequest(encoded).status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  PresentResponse response = SampleResponse();
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->outcome, response.outcome);
  EXPECT_EQ(decoded->attempts, response.attempts);
  EXPECT_EQ(decoded->cache_hit, response.cache_hit);
  EXPECT_EQ(decoded->error.code(), response.error.code());
  EXPECT_EQ(decoded->error.message(), response.error.message());
  EXPECT_EQ(decoded->presentation, response.presentation);
  EXPECT_EQ(decoded->presentation_hash, response.presentation_hash);
}

TEST(ProtocolTest, WireStatusRoundTrip) {
  std::string encoded = EncodeWireStatus(ResourceExhaustedError("queue full"));
  Status decoded;
  ASSERT_TRUE(DecodeWireStatus(encoded, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), "queue full");
}

TEST(ProtocolRobustnessTest, TruncatedRequestsAreDataLoss) {
  std::string encoded = EncodeRequest(SampleRequest());
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    auto result = DecodeRequest(encoded.substr(0, cut));
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(ProtocolRobustnessTest, TruncatedResponsesAreDataLoss) {
  std::string encoded = EncodeResponse(SampleResponse());
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    auto result = DecodeResponse(encoded.substr(0, cut));
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(ProtocolRobustnessTest, MutatedRequestsNeverMisfield) {
  // Fuzz-style sweep: every byte, every flipped bit. The decode either fails
  // as kDataLoss or yields a request whose non-string fields are still in
  // range (a flip inside a string body legitimately alters that string).
  std::string encoded = EncodeRequest(SampleRequest());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      auto result = DecodeRequest(mutated);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
            << "byte " << i << " bit " << bit << ": " << result.status();
      } else {
        EXPECT_LE(result->channels.size(), mutated.size()) << "byte " << i;
      }
    }
  }
}

TEST(ProtocolRobustnessTest, MutatedResponsesNeverMisfield) {
  std::string encoded = EncodeResponse(SampleResponse());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string mutated = encoded;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto result = DecodeResponse(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "byte " << i;
    } else {
      EXPECT_LE(static_cast<int>(result->outcome), static_cast<int>(ServeOutcome::kFailed));
      EXPECT_LE(result->attempts, 1 << 20);
    }
  }
}

TEST(ProtocolRobustnessTest, TrailingBytesAreDataLoss) {
  // Unknown trailing fields are rejected, not skipped: the frame version
  // byte is the compatibility mechanism.
  auto request = DecodeRequest(EncodeRequest(SampleRequest()) + "extra");
  EXPECT_EQ(request.status().code(), StatusCode::kDataLoss);
  auto response = DecodeResponse(EncodeResponse(SampleResponse()) + "x");
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss);
  Status decoded;
  EXPECT_EQ(DecodeWireStatus(EncodeWireStatus(InternalError("e")) + "y", &decoded).code(),
            StatusCode::kDataLoss);
}

TEST(ProtocolRobustnessTest, HugeClaimedCountsAreRejectedBeforeAllocation) {
  // A channel count far beyond the payload size must fail fast.
  std::string payload;
  payload.push_back(0);  // document ""
  payload.push_back(0);  // profile ""
  payload += std::string("\xff\xff\xff\xff\x0f", 5);  // channel count ~4 billion
  auto result = DecodeRequest(payload);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolRobustnessTest, OutOfRangeEnumsAreRejected) {
  // Booleans must be exactly 0 or 1, status codes and outcomes in range.
  // The trace sampling bit precedes the two-byte deadline and want_blocks.
  PresentRequest request = SampleRequest();
  std::string encoded = EncodeRequest(request);
  char& sampled = encoded[encoded.size() - 4];
  ASSERT_EQ(sampled, '\x01');  // trace.sampled
  sampled = 7;
  auto result = DecodeRequest(encoded);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolRobustnessTest, GarbageIsHandledStructurally) {
  for (const char* garbage : {"", "\x01", "not a message at all", "\xff\xff\xff\xff"}) {
    EXPECT_EQ(DecodeRequest(garbage).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeResponse(garbage).status().code(), StatusCode::kDataLoss);
    Status decoded;
    EXPECT_EQ(DecodeWireStatus(garbage, &decoded).code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeBatchRequest(garbage).status().code(), StatusCode::kDataLoss);
  }
}

TEST(ProtocolTest, BatchRoundTrip) {
  std::vector<PresentRequest> requests;
  requests.push_back(SampleRequest());
  PresentRequest second;
  second.document = "news-1-s1";
  second.deadline_ms = 20;
  requests.push_back(second);
  auto decoded = DecodeBatchRequest(EncodeBatchRequest(requests));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].document, "news-3-s2");
  EXPECT_EQ((*decoded)[0].deadline_ms, 150);
  EXPECT_EQ((*decoded)[1].document, "news-1-s1");
  EXPECT_EQ((*decoded)[1].deadline_ms, 20);

  std::vector<PresentResponse> responses;
  responses.push_back(SampleResponse());
  responses.push_back(PresentResponse{});
  responses[1].shed = true;
  responses[1].queue_ms = 3.25;
  auto back = DecodeBatchResponse(EncodeBatchResponse(responses));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE((*back)[1].shed);
  EXPECT_EQ((*back)[1].queue_ms, 3.25);
}

TEST(ProtocolTest, EmptyBatchRoundTrips) {
  auto requests = DecodeBatchRequest(EncodeBatchRequest({}));
  ASSERT_TRUE(requests.ok()) << requests.status();
  EXPECT_TRUE(requests->empty());
}

TEST(ProtocolRobustnessTest, BatchCountsAreBoundedBeforeAllocation) {
  // A claimed count beyond kMaxBatchMessages (or the payload size) fails
  // fast — a corrupted count byte must not amplify into unbounded work.
  std::string huge("\xff\xff\xff\xff\x0f", 5);  // count ~4 billion
  EXPECT_EQ(DecodeBatchRequest(huge).status().code(), StatusCode::kDataLoss);
  std::string over;
  over.push_back('\x89');  // varint 1033 > kMaxBatchMessages
  over.push_back('\x08');
  over.append(2000, '\x00');
  EXPECT_EQ(DecodeBatchRequest(over).status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolRobustnessTest, MutatedBatchesNeverMisfield) {
  std::vector<PresentRequest> requests(3, SampleRequest());
  std::string encoded = EncodeBatchRequest(requests);
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string mutated = encoded;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto result = DecodeBatchRequest(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "byte " << i;
    } else {
      EXPECT_LE(result->size(), kMaxBatchMessages) << "byte " << i;
    }
  }
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    auto result = DecodeBatchRequest(encoded.substr(0, cut));
    if (cut == 0) {
      continue;  // zero bytes cannot even carry the count
    }
    EXPECT_FALSE(result.ok() && !result->empty() && result->size() != requests.size())
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace net
}  // namespace cmif
