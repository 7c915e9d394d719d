// Wire framing: golden frame layout, round trips, and the robustness
// contract — every mutation or truncation of a valid frame decodes to a
// structured kDataLoss (mirroring tests/ddbms/persist_robustness_test.cc for
// the persist layer), never a crash, a hang, or a silently wrong frame.
#include "src/net/wire.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/base/crc32.h"
#include "src/base/string_util.h"
#include "src/net/protocol.h"
#include "src/net/stats.h"
#include "src/net/stream.h"

namespace cmif {
namespace net {
namespace {

TEST(WireTest, GoldenFrameLayout) {
  // "hi" as a ping: magic, current version, type 4, length 2, payload, CRC.
  std::string frame = EncodeFrame(FrameType::kPing, "hi");
  ASSERT_EQ(frame.size(), 4u + 1u + 1u + 1u + 2u + 4u);
  EXPECT_EQ(frame.substr(0, 4), "CMIF");
  EXPECT_EQ(static_cast<unsigned char>(frame[4]), kWireVersion);
  EXPECT_EQ(static_cast<unsigned char>(frame[5]), 4u);  // kPing
  EXPECT_EQ(static_cast<unsigned char>(frame[6]), 2u);  // varint length
  EXPECT_EQ(frame.substr(7, 2), "hi");
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  for (FrameType type : {FrameType::kRequest, FrameType::kResponse, FrameType::kError,
                         FrameType::kPing, FrameType::kPong}) {
    std::string payload(300, '\x5a');  // two-byte length varint
    payload += std::string(1, '\0');   // embedded NUL must survive
    std::string encoded = EncodeFrame(type, payload);
    std::size_t consumed = 0;
    auto frame = DecodeFrame(encoded, &consumed);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(consumed, encoded.size());
  }
}

TEST(WireTest, DecodeStopsAtFrameBoundary) {
  std::string stream = EncodeFrame(FrameType::kPing, "a") + EncodeFrame(FrameType::kPong, "b");
  std::size_t consumed = 0;
  auto first = DecodeFrame(stream, &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->payload, "a");
  auto second = DecodeFrame(stream.substr(consumed), &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->payload, "b");
}

TEST(WireTest, EmptyPayloadRoundTrips) {
  std::string encoded = EncodeFrame(FrameType::kPong, "");
  std::size_t consumed = 0;
  auto frame = DecodeFrame(encoded, &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireRobustnessTest, EveryBitFlipIsDetected) {
  // Exhaustive single-byte mutation over the whole frame. Whatever byte is
  // damaged — magic, version, type, length, payload, or the CRC itself —
  // decode must fail with a structured error, never succeed with different
  // bytes.
  std::string frame = EncodeFrame(FrameType::kRequest, "payload-under-test");
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    std::size_t consumed = 0;
    auto result = DecodeFrame(corrupted, &consumed, {});
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " decoded successfully";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "byte " << i;
    }
  }
}

TEST(WireRobustnessTest, EveryTruncationIsDetected) {
  std::string frame = EncodeFrame(FrameType::kResponse, "0123456789");
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::size_t consumed = 0;
    auto result = DecodeFrame(frame.substr(0, cut), &consumed, {});
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(WireRobustnessTest, ErrorsCarryByteOffsets) {
  // Header and length intact, payload cut: the error names the offset.
  std::string frame = EncodeFrame(FrameType::kPing, "x");
  std::size_t consumed = 0;
  auto result = DecodeFrame(frame.substr(0, 8), &consumed, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset"), std::string::npos)
      << result.status().message();
}

TEST(WireRobustnessTest, OversizedLengthRejectedBeforeAllocation) {
  // A frame claiming a 1 GiB payload must be rejected by the limit check on
  // the length prefix alone — decode never tries to allocate or read it.
  std::string header = "CMIF";
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(FrameType::kRequest));
  // varint for 1 GiB: 0x80 0x80 0x80 0x80 0x04
  header += std::string("\x80\x80\x80\x80\x04", 5);
  std::size_t consumed = 0;
  auto result = DecodeFrame(header, &consumed, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("exceeds"), std::string::npos)
      << result.status().message();
}

TEST(WireRobustnessTest, WrongMagicAndVersionAreRejected) {
  std::string frame = EncodeFrame(FrameType::kPing, "x");
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bad_magic, &consumed, {}).status().code(), StatusCode::kDataLoss);

  std::string bad_version = frame;
  bad_version[4] = 9;  // future version: CRC also fails, but version is first
  auto result = DecodeFrame(bad_version, &consumed, {});
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("version"), std::string::npos)
      << result.status().message();
}

TEST(WireRobustnessTest, UnknownFrameTypeIsRejected) {
  // Type 15 (one past kStreamEnd) with a recomputed-valid CRC is unreachable
  // via EncodeFrame, so build the frame by hand around the encoder: flip
  // type then fix nothing — the type check must fire before (or as) the CRC
  // check does.
  std::string frame = EncodeFrame(FrameType::kPing, "x");
  frame[5] = 15;
  std::size_t consumed = 0;
  auto result = DecodeFrame(frame, &consumed, {});
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(WireRobustnessTest, OnlyTheCurrentVersionIsAccepted) {
  // There is one wire version. A frame declaring any other — older or
  // newer — fails at the header as kDataLoss naming the version, in the
  // one-shot decoder and in the reactor's assembler alike (the assembler
  // from the header bytes alone). The CRC is recomputed over the rewritten
  // header, so the version check is what fires. Payload decoders handed
  // any other version fail the same way, whatever the payload.
  StatsSnapshot snapshot;
  const std::string stats = EncodeStatsSnapshot(snapshot);
  const std::string request = EncodeRequest(PresentRequest());
  const std::string response = EncodeResponse(PresentResponse());
  for (std::uint8_t version : {0, 1, 2, 3, 5, 255}) {
    SCOPED_TRACE(StrFormat("version %u", version));
    const std::string named = StrFormat("wire version %u ", version);
    std::string frame = EncodeFrame(FrameType::kRequest, request);
    frame.resize(frame.size() - 4);
    frame[4] = static_cast<char>(version);
    const std::uint32_t crc = Crc32(std::string_view(frame).substr(4));
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<char>((crc >> shift) & 0xff));
    }
    std::size_t consumed = 0;
    auto decoded = DecodeFrame(frame, &consumed, {});
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(decoded.status().message().find(named), std::string::npos)
        << decoded.status().message();

    FrameAssembler assembler;
    assembler.Feed(std::string_view(frame).substr(0, 6));
    auto next = assembler.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(next.status().message().find(named), std::string::npos)
        << next.status().message();

    for (const Status& status :
         {DecodeRequest(request, version).status(), DecodeResponse(response, version).status(),
          DecodeBatchRequest(EncodeBatchRequest({}), version).status(),
          DecodeBatchResponse(EncodeBatchResponse({}), version).status(),
          DecodeStatsSnapshot(stats, version).status(),
          DecodeStreamRequest(EncodeStreamRequest(StreamRequest()), version).status(),
          DecodeStreamBegin(EncodeStreamBegin(StreamBegin()), version).status(),
          DecodeStreamChunk(EncodeStreamChunk(StreamChunk{1, 0, "x"}), version).status(),
          DecodeStreamAck(EncodeStreamAck(StreamAck()), version).status(),
          DecodeStreamEnd(EncodeStreamEnd(StreamEnd()), version).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
      EXPECT_NE(status.message().find(named), std::string::npos) << status;
    }
  }
}

TEST(FrameAssemblerTest, ReassemblesByteAtATime) {
  // The reactor's recv() can return any split; the worst case is one byte
  // per wakeup. The assembler must produce the identical frame and report
  // nonzero buffered() the whole way through (slow-loris bookkeeping).
  std::string stream = EncodeFrame(FrameType::kRequest, "dripped");
  FrameAssembler assembler;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    assembler.Feed(stream.substr(i, 1));
    auto partial = assembler.Next();
    ASSERT_TRUE(partial.ok()) << "byte " << i << ": " << partial.status();
    EXPECT_FALSE(partial->has_value()) << "frame completed early at byte " << i;
    EXPECT_GT(assembler.buffered(), 0u);
  }
  assembler.Feed(stream.substr(stream.size() - 1));
  auto frame = assembler.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kRequest);
  EXPECT_EQ((*frame)->payload, "dripped");
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssemblerTest, DrainsPipelinedFramesFromOneFeed) {
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    stream += EncodeFrame(FrameType::kPing, std::string(1, static_cast<char>('a' + i)));
  }
  FrameAssembler assembler;
  assembler.Feed(stream);
  for (int i = 0; i < 5; ++i) {
    auto frame = assembler.Next();
    ASSERT_TRUE(frame.ok() && frame->has_value()) << "frame " << i;
    EXPECT_EQ((*frame)->payload, std::string(1, static_cast<char>('a' + i)));
  }
  auto done = assembler.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
}

TEST(FrameAssemblerTest, PoisonsPermanentlyOnDesync) {
  // Garbage mid-stream desynchronizes the connection for good — there is no
  // way to find the next frame boundary, so the assembler keeps failing even
  // if valid bytes arrive later. The reactor drops the connection on the
  // first error.
  FrameAssembler assembler;
  assembler.Feed(EncodeFrame(FrameType::kPing, "ok"));
  auto good = assembler.Next();
  ASSERT_TRUE(good.ok() && good->has_value());
  assembler.Feed("XXXXGARBAGE");
  auto bad = assembler.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  assembler.Feed(EncodeFrame(FrameType::kPing, "too late"));
  auto still_bad = assembler.Next();
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.status().code(), StatusCode::kDataLoss);
}

TEST(FrameAssemblerTest, RejectsBadHeaderBeforeFullFrame) {
  // Header validation is incremental: four wrong magic bytes are enough to
  // fail, no need to wait for a length or CRC that will never come.
  FrameAssembler assembler;
  assembler.Feed("HTTP");
  auto result = assembler.Next();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(FrameAssemblerTest, EnforcesPayloadLimit) {
  WireLimits limits;
  limits.max_payload_bytes = 16;
  FrameAssembler assembler(limits);
  assembler.Feed(EncodeFrame(FrameType::kPing, std::string(64, 'x')));
  auto result = assembler.Next();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace net
}  // namespace cmif
