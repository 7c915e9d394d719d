// The stream frames' wire contract (wire v4, src/net/stream.h): every
// message round-trips exactly, pinned goldens catch silent re-encodings,
// and every truncation or bit flip of a valid encoding either decodes to a
// message whose fields are still plausible or fails as a structured
// kDataLoss — never a crash or an unbounded allocation. The reassembler is
// held to the same discipline: out-of-order, oversized, alien, or replayed
// chunks are kDataLoss; resume boundaries must agree byte-for-byte.
#include "src/net/stream.h"

#include <gtest/gtest.h>

#include <string>

#include "src/base/string_util.h"

namespace cmif {
namespace net {
namespace {

StreamRequest SampleStreamRequest() {
  StreamRequest request;
  request.request.document = "news-3-s2";
  request.request.profile = "portable";
  request.request.channels = {"video", "caption"};
  request.request.deadline_ms = 150;
  request.chunk_bytes = 4096;
  request.resume_stream_id = 0x1122334455667788ull;
  request.resume_chunks = 9;
  return request;
}

StreamBegin SampleStreamBegin() {
  StreamBegin begin;
  begin.stream_id = 0xfeedfacecafebeefull;
  begin.prefix.outcome = ServeOutcome::kHealthy;
  begin.prefix.attempts = 1;
  begin.prefix.presentation = "(presentation\n (map)\n)";
  begin.prefix.presentation_hash = 0x0123456789abcdefull;
  begin.manifest.push_back(StreamBlockInfo{"vid-07", 700, MediaTime::Seconds(2)});
  begin.manifest.push_back(StreamBlockInfo{"aud-01", 120, MediaTime::Millis(2500)});
  begin.chunk_bytes = 512;
  begin.total_chunks = StreamChunkCount(820, 512);  // 2
  begin.payload_hash = 0x5a5a5a5a5a5a5a5aull;
  begin.resumed_from = 1;
  return begin;
}

TEST(StreamCodecTest, RequestRoundTrip) {
  StreamRequest request = SampleStreamRequest();
  auto decoded = DecodeStreamRequest(EncodeStreamRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->request.document, request.request.document);
  EXPECT_EQ(decoded->request.profile, request.request.profile);
  EXPECT_EQ(decoded->request.channels, request.request.channels);
  EXPECT_EQ(decoded->request.deadline_ms, request.request.deadline_ms);
  EXPECT_EQ(decoded->chunk_bytes, request.chunk_bytes);
  EXPECT_EQ(decoded->resume_stream_id, request.resume_stream_id);
  EXPECT_EQ(decoded->resume_chunks, request.resume_chunks);
}

TEST(StreamCodecTest, BeginRoundTrip) {
  StreamBegin begin = SampleStreamBegin();
  auto decoded = DecodeStreamBegin(EncodeStreamBegin(begin));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stream_id, begin.stream_id);
  EXPECT_EQ(decoded->prefix.presentation, begin.prefix.presentation);
  EXPECT_EQ(decoded->prefix.presentation_hash, begin.prefix.presentation_hash);
  ASSERT_EQ(decoded->manifest.size(), 2u);
  EXPECT_EQ(decoded->manifest[0].descriptor_id, "vid-07");
  EXPECT_EQ(decoded->manifest[0].bytes, 700u);
  EXPECT_EQ(decoded->manifest[0].first_need, MediaTime::Seconds(2));
  EXPECT_EQ(decoded->manifest[1].descriptor_id, "aud-01");
  EXPECT_EQ(decoded->chunk_bytes, begin.chunk_bytes);
  EXPECT_EQ(decoded->total_chunks, begin.total_chunks);
  EXPECT_EQ(decoded->payload_hash, begin.payload_hash);
  EXPECT_EQ(decoded->resumed_from, begin.resumed_from);
}

TEST(StreamCodecTest, ChunkAckEndRoundTrip) {
  StreamChunk chunk{7, 3, std::string(512, 'x')};
  auto c = DecodeStreamChunk(EncodeStreamChunk(chunk));
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->stream_id, 7u);
  EXPECT_EQ(c->chunk_index, 3u);
  EXPECT_EQ(c->payload, chunk.payload);

  StreamAck ack{7, 4, 2};
  auto a = DecodeStreamAck(EncodeStreamAck(ack));
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->stream_id, 7u);
  EXPECT_EQ(a->chunks_received, 4u);
  EXPECT_EQ(a->stalls, 2u);

  StreamEnd end{7, 4, 0xabcdull};
  auto e = DecodeStreamEnd(EncodeStreamEnd(end));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e->stream_id, 7u);
  EXPECT_EQ(e->total_chunks, 4u);
  EXPECT_EQ(e->payload_hash, 0xabcdull);
}

TEST(StreamCodecTest, ChunkEncodingGolden) {
  // The v4 chunk layout, byte for byte: stream id, index, then the payload
  // as a length-prefixed string. A silent re-ordering would break mixed
  // builds even though same-build round trips still pass.
  StreamChunk chunk{42, 7, "abc"};
  const std::string expected(
      "\x2a"   // stream_id 42
      "\x07"   // chunk_index 7
      "\x03"   // payload length 3
      "abc",
      6);
  EXPECT_EQ(EncodeStreamChunk(chunk), expected);
}

TEST(StreamCodecTest, ChunkFrameFromAViewMatchesTheTwoStepEncoding) {
  // The server frames chunks straight from views into its shared plan;
  // the bytes must be exactly the message-then-frame encoding, across
  // varint widths of every field and every wire version.
  const std::string plan(70000, 'p');
  for (std::uint8_t version = kMinWireVersion; version <= kWireVersion; ++version) {
    for (std::uint64_t stream_id : {std::uint64_t{0}, std::uint64_t{42}, ~std::uint64_t{0}}) {
      for (std::size_t size : {std::size_t{1}, std::size_t{127}, std::size_t{128},
                               std::size_t{65536}, plan.size()}) {
        const std::string_view payload = std::string_view(plan).substr(0, size);
        StreamChunk chunk{stream_id, 300, std::string(payload)};
        EXPECT_EQ(EncodeStreamChunkFrame(stream_id, 300, payload, version),
                  EncodeFrame(FrameType::kStreamChunk, EncodeStreamChunk(chunk, version), version))
            << "version " << int{version} << " id " << stream_id << " size " << size;
      }
    }
  }
}

TEST(StreamCodecTest, AckAndEndEncodingGolden) {
  EXPECT_EQ(EncodeStreamAck(StreamAck{42, 300, 1}),
            std::string("\x2a\xac\x02\x01", 4));  // 300 = LEB128 ac 02
  EXPECT_EQ(EncodeStreamEnd(StreamEnd{1, 2, 128}),
            std::string("\x01\x02\x80\x01", 4));
}

TEST(StreamCodecTest, RequestEncodingGolden) {
  // The stream request wraps the inner v4 PresentRequest as one
  // length-prefixed string, then appends the delivery fields.
  StreamRequest request;
  request.request.document = "d";
  request.chunk_bytes = 256;
  request.resume_stream_id = 5;
  request.resume_chunks = 2;
  const std::string inner(
      "\x01"
      "d"
      "\x00"        // profile ""
      "\x00"        // channel count 0
      "\x01"        // want_body
      "\x01"        // allow_degraded
      "\x00"        // trace_id 0
      "\x00"        // parent_span_id 0
      "\x00"        // sampled
      "\x00"        // deadline_ms 0 (v3 tail)
      "\x00",       // want_blocks false (v4 tail)
      11);
  const std::string expected =
      std::string("\x0b", 1) + inner + std::string("\x80\x02\x05\x02", 4);
  EXPECT_EQ(EncodeStreamRequest(request), expected);
}

TEST(StreamCodecTest, ZeroAndImplausibleChunkSizesAreRejected) {
  StreamRequest request = SampleStreamRequest();
  request.chunk_bytes = 0;
  EXPECT_EQ(DecodeStreamRequest(EncodeStreamRequest(request)).status().code(),
            StatusCode::kDataLoss);
  request.chunk_bytes = kMaxChunkBytes + 1;
  EXPECT_EQ(DecodeStreamRequest(EncodeStreamRequest(request)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, ResumeChunksWithoutStreamIdAreRejected) {
  StreamRequest request = SampleStreamRequest();
  request.resume_stream_id = 0;
  request.resume_chunks = 3;
  EXPECT_EQ(DecodeStreamRequest(EncodeStreamRequest(request)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, BeginWithInlineBlocksIsRejected) {
  // The stream prefix must never double-deliver: blocks travel as chunks.
  StreamBegin begin = SampleStreamBegin();
  begin.prefix.blocks.push_back(WireBlock{"vid-07", "bytes"});
  EXPECT_EQ(DecodeStreamBegin(EncodeStreamBegin(begin)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, BeginChunkCountMustAgreeWithManifest) {
  StreamBegin begin = SampleStreamBegin();
  begin.total_chunks = 5;  // manifest says 2
  EXPECT_EQ(DecodeStreamBegin(EncodeStreamBegin(begin)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, BeginResumePastEndIsRejected) {
  StreamBegin begin = SampleStreamBegin();
  begin.resumed_from = begin.total_chunks + 1;
  EXPECT_EQ(DecodeStreamBegin(EncodeStreamBegin(begin)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, EmptyAndOversizedChunksAreRejected) {
  StreamChunk empty{1, 0, ""};
  EXPECT_EQ(DecodeStreamChunk(EncodeStreamChunk(empty)).status().code(),
            StatusCode::kDataLoss);
  StreamChunk oversized{1, 0, std::string(kMaxChunkBytes + 1, 'x')};
  EXPECT_EQ(DecodeStreamChunk(EncodeStreamChunk(oversized)).status().code(),
            StatusCode::kDataLoss);
}

TEST(StreamCodecTest, ChunkCountHelper) {
  EXPECT_EQ(StreamChunkCount(0, 512), 0u);
  EXPECT_EQ(StreamChunkCount(1, 512), 1u);
  EXPECT_EQ(StreamChunkCount(512, 512), 1u);
  EXPECT_EQ(StreamChunkCount(513, 512), 2u);
  EXPECT_EQ(StreamChunkCount(1024, 512), 2u);
}

TEST(StreamCodecTest, StreamIdIsDeterministicAndNonZero) {
  std::uint64_t id = DeriveStreamId(1, 2, 3);
  EXPECT_EQ(id, DeriveStreamId(1, 2, 3));
  EXPECT_NE(id, 0u);
  EXPECT_NE(id, DeriveStreamId(1, 2, 4));  // chunking is part of identity
  EXPECT_NE(id, DeriveStreamId(9, 2, 3));
}

// ---- robustness sweeps ----------------------------------------------------

TEST(StreamRobustnessTest, TruncatedFramesAreDataLoss) {
  const std::string encodings[] = {
      EncodeStreamRequest(SampleStreamRequest()),
      EncodeStreamBegin(SampleStreamBegin()),
      EncodeStreamChunk(StreamChunk{7, 3, "payload"}),
      EncodeStreamAck(StreamAck{7, 4, 2}),
      EncodeStreamEnd(StreamEnd{7, 4, 0xabcdull}),
  };
  for (std::size_t which = 0; which < 5; ++which) {
    const std::string& encoded = encodings[which];
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      std::string prefix = encoded.substr(0, cut);
      Status status;
      switch (which) {
        case 0: status = DecodeStreamRequest(prefix).status(); break;
        case 1: status = DecodeStreamBegin(prefix).status(); break;
        case 2: status = DecodeStreamChunk(prefix).status(); break;
        case 3: status = DecodeStreamAck(prefix).status(); break;
        case 4: status = DecodeStreamEnd(prefix).status(); break;
      }
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "message " << which << " cut=" << cut;
    }
  }
}

TEST(StreamRobustnessTest, MutatedRequestsNeverMisfield) {
  // Every byte, every flipped bit: decode either fails structurally or
  // yields a request whose numeric fields are still plausible.
  std::string encoded = EncodeStreamRequest(SampleStreamRequest());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      auto result = DecodeStreamRequest(mutated);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
            << "byte " << i << " bit " << bit << ": " << result.status();
      } else {
        EXPECT_GT(result->chunk_bytes, 0u) << "byte " << i;
        EXPECT_LE(result->chunk_bytes, kMaxChunkBytes) << "byte " << i;
      }
    }
  }
}

TEST(StreamRobustnessTest, MutatedBeginsNeverMisfield) {
  std::string encoded = EncodeStreamBegin(SampleStreamBegin());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      auto result = DecodeStreamBegin(mutated);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
            << "byte " << i << " bit " << bit << ": " << result.status();
      } else {
        EXPECT_LE(result->manifest.size(), kMaxStreamBlocks) << "byte " << i;
        EXPECT_GE(result->chunk_bytes, kMinChunkBytes) << "byte " << i;
        EXPECT_LE(result->chunk_bytes, kMaxChunkBytes) << "byte " << i;
        EXPECT_LE(result->resumed_from, result->total_chunks) << "byte " << i;
      }
    }
  }
}

TEST(StreamRobustnessTest, MutatedChunksAcksEndsNeverMisfield) {
  const std::string encodings[] = {
      EncodeStreamChunk(StreamChunk{7, 3, "payload-bytes"}),
      EncodeStreamAck(StreamAck{7, 4, 2}),
      EncodeStreamEnd(StreamEnd{7, 4, 0xabcdull}),
  };
  for (std::size_t which = 0; which < 3; ++which) {
    const std::string& encoded = encodings[which];
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = encoded;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        Status status;
        switch (which) {
          case 0: status = DecodeStreamChunk(mutated).status(); break;
          case 1: status = DecodeStreamAck(mutated).status(); break;
          case 2: status = DecodeStreamEnd(mutated).status(); break;
        }
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kDataLoss)
              << "message " << which << " byte " << i << " bit " << bit;
        }
      }
    }
  }
}

TEST(StreamRobustnessTest, GarbageIsHandledStructurally) {
  for (const char* garbage : {"", "\x01", "not a stream frame", "\xff\xff\xff\xff"}) {
    EXPECT_EQ(DecodeStreamRequest(garbage).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeStreamBegin(garbage).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeStreamChunk(garbage).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeStreamAck(garbage).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeStreamEnd(garbage).status().code(), StatusCode::kDataLoss);
  }
}

TEST(StreamRobustnessTest, HugeManifestCountsAreRejectedBeforeAllocation) {
  // stream_id, a valid (empty-response) prefix string, then a block count
  // of ~4 billion: the decode must fail fast on the count bounds.
  StreamBegin begin = SampleStreamBegin();
  begin.manifest.clear();
  begin.total_chunks = 0;
  begin.resumed_from = 0;
  std::string encoded = EncodeStreamBegin(begin);
  // The manifest count 0 sits right after the prefix string; find it by
  // re-encoding with one entry and diffing is brittle, so rebuild by hand.
  std::string payload;
  payload.push_back('\x01');  // stream_id 1
  std::string prefix = EncodeResponse(PresentResponse{});
  // length-prefixed prefix string
  std::string out;
  {
    // varint length
    std::uint64_t n = prefix.size();
    while (n >= 0x80) {
      out.push_back(static_cast<char>(n | 0x80));
      n >>= 7;
    }
    out.push_back(static_cast<char>(n));
  }
  payload += out + prefix;
  payload += std::string("\xff\xff\xff\xff\x0f", 5);  // count ~4 billion
  EXPECT_EQ(DecodeStreamBegin(payload).status().code(), StatusCode::kDataLoss);
}

// ---- reassembler ------------------------------------------------------------

StreamBegin TwoChunkBegin(const std::string& payload, std::uint64_t chunk_bytes) {
  StreamBegin begin;
  begin.stream_id = 99;
  begin.manifest.push_back(
      StreamBlockInfo{"blk-a", payload.size() / 2, MediaTime::Seconds(1)});
  begin.manifest.push_back(
      StreamBlockInfo{"blk-b", payload.size() - payload.size() / 2, MediaTime::Seconds(2)});
  begin.chunk_bytes = chunk_bytes;
  begin.total_chunks = StreamChunkCount(payload.size(), chunk_bytes);
  begin.payload_hash = Fnv1a64(payload);
  return begin;
}

TEST(StreamReassemblerTest, CarvesBlocksByManifest) {
  std::string payload(700, 'a');
  for (std::size_t i = 350; i < payload.size(); ++i) {
    payload[i] = 'b';
  }
  StreamBegin begin = TwoChunkBegin(payload, 512);
  StreamReassembler reassembler;
  ASSERT_TRUE(reassembler.Begin(begin).ok());
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 0, payload.substr(0, 512)}).ok());
  EXPECT_FALSE(reassembler.complete());
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 1, payload.substr(512)}).ok());
  EXPECT_TRUE(reassembler.complete());
  auto blocks = reassembler.Finish(StreamEnd{99, 2, begin.payload_hash});
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  ASSERT_EQ(blocks->size(), 2u);
  EXPECT_EQ((*blocks)[0].descriptor_id, "blk-a");
  EXPECT_EQ((*blocks)[0].payload, payload.substr(0, 350));
  EXPECT_EQ((*blocks)[1].descriptor_id, "blk-b");
  EXPECT_EQ((*blocks)[1].payload, payload.substr(350));
}

TEST(StreamReassemblerTest, RejectsDisorderAliensAndWrongSizes) {
  std::string payload(700, 'z');
  StreamBegin begin = TwoChunkBegin(payload, 512);
  StreamReassembler reassembler;
  ASSERT_TRUE(reassembler.Begin(begin).ok());
  // Chunk before begin is a precondition failure, not data loss.
  StreamReassembler cold;
  EXPECT_EQ(cold.Feed(StreamChunk{99, 0, payload.substr(0, 512)}).code(),
            StatusCode::kFailedPrecondition);
  // Wrong stream.
  EXPECT_EQ(reassembler.Feed(StreamChunk{98, 0, payload.substr(0, 512)}).code(),
            StatusCode::kDataLoss);
  // Out of order.
  EXPECT_EQ(reassembler.Feed(StreamChunk{99, 1, payload.substr(512)}).code(),
            StatusCode::kDataLoss);
  // Wrong size for the first chunk.
  EXPECT_EQ(reassembler.Feed(StreamChunk{99, 0, payload.substr(0, 100)}).code(),
            StatusCode::kDataLoss);
  // Correct feed still works after rejected ones (no partial state).
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 0, payload.substr(0, 512)}).ok());
  // Replay of the same index is now out of order.
  EXPECT_EQ(reassembler.Feed(StreamChunk{99, 0, payload.substr(0, 512)}).code(),
            StatusCode::kDataLoss);
}

TEST(StreamReassemblerTest, FinishCrossChecksTrailerAndHash) {
  std::string payload(300, 'q');
  StreamBegin begin = TwoChunkBegin(payload, 256);
  StreamReassembler reassembler;
  ASSERT_TRUE(reassembler.Begin(begin).ok());
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 0, payload.substr(0, 256)}).ok());
  // Finishing early is a precondition failure.
  EXPECT_EQ(reassembler.Finish(StreamEnd{99, 2, begin.payload_hash}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 1, payload.substr(256)}).ok());
  // Trailer disagreements are data loss.
  EXPECT_EQ(reassembler.Finish(StreamEnd{98, 2, begin.payload_hash}).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(reassembler.Finish(StreamEnd{99, 3, begin.payload_hash}).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(reassembler.Finish(StreamEnd{99, 2, begin.payload_hash ^ 1}).status().code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(reassembler.Finish(StreamEnd{99, 2, begin.payload_hash}).ok());
}

TEST(StreamReassemblerTest, CorruptPayloadFailsTheEndToEndHash) {
  // A flipped payload byte sails through chunk framing (the frame CRC was
  // recomputed by the corruptor) and must be caught by the stream hash.
  std::string payload(300, 'q');
  StreamBegin begin = TwoChunkBegin(payload, 256);
  StreamReassembler reassembler;
  ASSERT_TRUE(reassembler.Begin(begin).ok());
  std::string corrupt = payload.substr(0, 256);
  corrupt[10] ^= 0x40;
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 0, corrupt}).ok());
  ASSERT_TRUE(reassembler.Feed(StreamChunk{99, 1, payload.substr(256)}).ok());
  auto blocks = reassembler.Finish(StreamEnd{99, 2, begin.payload_hash});
  EXPECT_EQ(blocks.status().code(), StatusCode::kDataLoss);
}

TEST(StreamReassemblerTest, ResumesAtChunkBoundary) {
  std::string payload(1000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 26));
  }
  StreamBegin begin = TwoChunkBegin(payload, 256);  // 4 chunks
  ASSERT_EQ(begin.total_chunks, 4u);
  // First attempt delivers chunks 0..1, then the connection dies.
  StreamReassembler first;
  ASSERT_TRUE(first.Begin(begin).ok());
  ASSERT_TRUE(first.Feed(StreamChunk{99, 0, payload.substr(0, 256)}).ok());
  ASSERT_TRUE(first.Feed(StreamChunk{99, 1, payload.substr(256, 256)}).ok());
  EXPECT_EQ(first.chunks_received(), 2u);
  // The resumed stream picks up at the boundary with the held prefix.
  StreamBegin resumed = begin;
  resumed.resumed_from = 2;
  StreamReassembler second;
  ASSERT_TRUE(second.Begin(resumed, std::string(first.bytes())).ok());
  ASSERT_TRUE(second.Feed(StreamChunk{99, 2, payload.substr(512, 256)}).ok());
  ASSERT_TRUE(second.Feed(StreamChunk{99, 3, payload.substr(768)}).ok());
  auto blocks = second.Finish(StreamEnd{99, 4, begin.payload_hash});
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  EXPECT_EQ((*blocks)[0].payload + (*blocks)[1].payload, payload);
}

TEST(StreamReassemblerTest, ResumesAtTheFinalShortChunkBoundary) {
  // A client that received every chunk but lost the connection before
  // kStreamEnd resumes holding total_bytes — less than
  // total_chunks * chunk_bytes whenever the final chunk is short. That
  // resume must be accepted and finish without refetching anything.
  std::string payload(700, 's');  // 3 chunks of 256: the last is 188 bytes
  StreamBegin begin = TwoChunkBegin(payload, 256);
  ASSERT_EQ(begin.total_chunks, 3u);
  StreamBegin resumed = begin;
  resumed.resumed_from = 3;
  StreamReassembler reassembler;
  ASSERT_TRUE(reassembler.Begin(resumed, payload).ok());
  EXPECT_TRUE(reassembler.complete());
  auto blocks = reassembler.Finish(StreamEnd{99, 3, begin.payload_hash});
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  EXPECT_EQ((*blocks)[0].payload + (*blocks)[1].payload, payload);
  // A full-boundary prefix (3 * 256 bytes) no longer matches the payload
  // and stays rejected.
  StreamReassembler wrong;
  EXPECT_EQ(wrong.Begin(resumed, payload + std::string(68, 'x')).code(),
            StatusCode::kDataLoss);
}

TEST(StreamReassemblerTest, ResumePastTheChunkCountIsRejected) {
  std::string payload(700, 't');
  StreamBegin begin = TwoChunkBegin(payload, 256);
  StreamBegin resumed = begin;
  resumed.resumed_from = begin.total_chunks + 1;
  StreamReassembler reassembler;
  EXPECT_EQ(reassembler.Begin(resumed, payload).code(), StatusCode::kDataLoss);
}

TEST(StreamReassemblerTest, ResumePrefixMustSitOnTheBoundary) {
  std::string payload(1000, 'r');
  StreamBegin begin = TwoChunkBegin(payload, 256);
  StreamBegin resumed = begin;
  resumed.resumed_from = 2;
  StreamReassembler reassembler;
  // Too short, too long, and off-by-one prefixes are all rejected.
  EXPECT_EQ(reassembler.Begin(resumed, payload.substr(0, 511)).code(), StatusCode::kDataLoss);
  EXPECT_EQ(reassembler.Begin(resumed, payload.substr(0, 513)).code(), StatusCode::kDataLoss);
  EXPECT_EQ(reassembler.Begin(resumed, "").code(), StatusCode::kDataLoss);
  EXPECT_TRUE(reassembler.Begin(resumed, payload.substr(0, 512)).ok());
}

}  // namespace
}  // namespace net
}  // namespace cmif
