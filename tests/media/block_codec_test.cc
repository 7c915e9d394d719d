// The block payload codec's decode contract: crafted or corrupted payloads
// fail as structured kDataLoss — never a crash, out-of-bounds read, or
// unbounded allocation — and valid encodings round-trip exactly. These
// payloads arrive over the network (wire v4 stream chunks carry them), so
// the decode path is adversarial input.
#include "src/media/block_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/base/string_util.h"
#include "src/base/varint.h"
#include "src/media/audio.h"
#include "src/media/data_block.h"
#include "src/media/raster.h"
#include "src/media/text.h"
#include "src/media/video.h"

namespace cmif {
namespace {

// Fixed blocks of every bulk-encoded shape, with non-uniform contents so a
// transposed row, a swapped channel or a byte-order slip changes the bytes.
Raster PatternRaster(int width, int height, int salt) {
  Raster image(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      image.Put(x, y,
                Pixel{static_cast<std::uint8_t>(x * 7 + salt), static_cast<std::uint8_t>(y * 13),
                      static_cast<std::uint8_t>((x ^ y) + salt * 3)});
    }
  }
  return image;
}

TEST(BlockCodecTest, EncodingsArePinned) {
  // The canonical encoding is what streams, blobs and the stream id hash;
  // these digests pin it byte for byte, whatever the encoder's internals.
  TextFormatting formatting;
  formatting.font = "helvetica";
  formatting.size = 14;
  formatting.indent = -3;
  formatting.vspace = 2;
  DataBlock text = DataBlock::FromText(TextBlock("The evening news, tonight.", formatting));

  AudioBuffer audio(8000, 2, 501);
  for (std::size_t frame = 0; frame < audio.frames(); ++frame) {
    audio.SetSample(frame, 0, static_cast<std::int16_t>(frame * 131 - 30000));
    audio.SetSample(frame, 1, static_cast<std::int16_t>(-static_cast<int>(frame) * 67));
  }
  DataBlock sound = DataBlock::FromAudio(std::move(audio));

  DataBlock image = DataBlock::FromImage(PatternRaster(37, 11, 5));
  DataBlock graphic = DataBlock::FromImage(PatternRaster(3, 2, 9), MediaType::kGraphic);

  VideoSegment video(25);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(video.Append(PatternRaster(9, 6, i)).ok());
  }
  DataBlock clip = DataBlock::FromVideo(std::move(video));

  EXPECT_EQ(Fnv1a64(EncodeBlockPayload(text)), 0xc3e78bea6733f079ull);
  EXPECT_EQ(Fnv1a64(EncodeBlockPayload(sound)), 0x25faf5242f0c9060ull);
  EXPECT_EQ(Fnv1a64(EncodeBlockPayload(image)), 0x6866f5ad5ac898d4ull);
  EXPECT_EQ(Fnv1a64(EncodeBlockPayload(graphic)), 0xf1a0f0c7955bb72cull);
  EXPECT_EQ(Fnv1a64(EncodeBlockPayload(clip)), 0x9839dd9ad5150f11ull);
  EXPECT_EQ(EncodeBlockPayload(sound).size(), 3u + 2 + 2 + 501 * 2 * 2);
  EXPECT_EQ(EncodeBlockPayload(clip).size(), 6u + 4 * 9 * 6 * 3);
}

TEST(BlockCodecTest, VideoRoundTrip) {
  VideoSegment video(25);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(video.Append(Raster(4, 2, Pixel{static_cast<std::uint8_t>(i), 0, 255})).ok());
  }
  DataBlock block = DataBlock::FromVideo(std::move(video));
  auto decoded = DecodeBlockPayload(EncodeBlockPayload(block));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->video().fps(), 25);
  EXPECT_EQ(decoded->video().frame_count(), 3u);
  EXPECT_EQ(decoded->video(), block.video());
}

TEST(BlockCodecTest, VideoSizeOverflowIsDataLossNotOutOfBoundsRead) {
  // frame_count * width * height * 3 = 2^40 * 2^15 * 512 * 3 = 3 * 2^64,
  // which wraps to 0 in uint64 — exactly matching the empty tail. A naive
  // size check passes and the frame loop then reads out of bounds; the
  // decode must instead fail structurally on the byte budget.
  std::string payload;
  PutVarint64(payload, static_cast<std::uint64_t>(MediaType::kVideo));
  PutVarint64(payload, 0);          // not a generator
  PutVarint64(payload, 30);         // fps
  PutVarint64(payload, 1ull << 40); // frame_count at the plausibility cap
  PutVarint64(payload, 1ull << 15); // width at the pixel cap
  PutVarint64(payload, 512);        // height
  auto decoded = DecodeBlockPayload(payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << decoded.status();
}

TEST(BlockCodecTest, ZeroAreaVideoFramesAreDataLoss) {
  // Zero-area frames carry no payload bytes, so any frame count "fits" the
  // tail; accepting them would let a crafted count drive an unbounded
  // append loop.
  std::string payload;
  PutVarint64(payload, static_cast<std::uint64_t>(MediaType::kVideo));
  PutVarint64(payload, 0);   // not a generator
  PutVarint64(payload, 30);  // fps
  PutVarint64(payload, 7);   // frame_count
  PutVarint64(payload, 0);   // width
  PutVarint64(payload, 16);  // height
  auto decoded = DecodeBlockPayload(payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << decoded.status();
}

TEST(BlockCodecTest, TruncatedVideoPayloadIsDataLoss) {
  VideoSegment video(10);
  ASSERT_TRUE(video.Append(Raster(8, 8)).ok());
  std::string encoded = EncodeBlockPayload(DataBlock::FromVideo(std::move(video)));
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeBlockPayload(encoded.substr(0, cut));
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace cmif
