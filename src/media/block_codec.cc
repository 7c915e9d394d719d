#include "src/media/block_codec.h"

#include <cstring>
#include <type_traits>

#include "src/base/codec_util.h"
#include "src/base/string_util.h"
#include "src/base/varint.h"

namespace cmif {
namespace {

// Plausibility caps: a corrupted varint must fail structurally, not turn
// into an unbounded allocation or an absurd-but-parseable block.
constexpr std::uint64_t kMaxPlausibleBytes = 1ull << 40;
constexpr std::uint64_t kMaxPixelDim = 1u << 15;
constexpr std::uint64_t kMaxAudioRate = 1u << 24;
constexpr std::uint64_t kMaxVideoFps = 10000;

StatusOr<MediaType> CheckMediaType(std::uint64_t raw) {
  if (raw > static_cast<std::uint64_t>(MediaType::kGraphic)) {
    return DataLossError(
        StrFormat("unknown media type %llu", static_cast<unsigned long long>(raw)));
  }
  return static_cast<MediaType>(raw);
}

// Grows `out` by exactly `bytes` and returns where the new tail starts: the
// bulk sections (samples, pixels) are written in place after one exact-size
// growth instead of being appended element by element.
char* GrowBy(std::string& out, std::size_t bytes) {
  const std::size_t start = out.size();
  out.resize(start + bytes);
  return out.data() + start;
}

// Pixel is three bytes in r, g, b order, so a raster's row-major storage is
// already its wire encoding.
static_assert(sizeof(Pixel) == 3 && std::is_trivially_copyable_v<Pixel>);

char* PutPixels(char* dst, const Raster& image) {
  const std::size_t bytes = image.pixels().size() * sizeof(Pixel);
  if (bytes > 0) {  // an empty raster's data() may be null
    std::memcpy(dst, image.pixels().data(), bytes);
  }
  return dst + bytes;
}

// Reads width*height raw RGB triples at *pos (bounds already validated).
Raster GetRaster(std::string_view bytes, std::size_t* pos, int width, int height) {
  Raster image(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      Pixel p;
      p.r = static_cast<std::uint8_t>(bytes[(*pos)++]);
      p.g = static_cast<std::uint8_t>(bytes[(*pos)++]);
      p.b = static_cast<std::uint8_t>(bytes[(*pos)++]);
      image.Put(x, y, p);
    }
  }
  return image;
}

}  // namespace

std::string EncodeBlockPayload(const DataBlock& block) {
  std::string out;
  PutVarint64(out, static_cast<std::uint64_t>(block.medium()));
  PutVarint64(out, block.is_generator() ? 1 : 0);
  if (block.is_generator()) {
    const GeneratorSpec& gen = block.generator();
    PutString(out, gen.generator);
    PutString(out, gen.params);
    PutMediaTime(out, gen.duration);
    PutVarint64(out, gen.approx_bytes);
    return out;
  }
  switch (block.medium()) {
    case MediaType::kText: {
      const TextBlock& text = block.text();
      PutString(out, text.text());
      PutString(out, text.formatting().font);
      PutZigzag64(out, text.formatting().size);
      PutZigzag64(out, text.formatting().indent);
      PutZigzag64(out, text.formatting().vspace);
      break;
    }
    case MediaType::kAudio: {
      const AudioBuffer& audio = block.audio();
      PutVarint64(out, static_cast<std::uint64_t>(audio.rate()));
      PutVarint64(out, static_cast<std::uint64_t>(audio.channels()));
      PutVarint64(out, audio.frames());
      char* dst = GrowBy(out, audio.samples().size() * 2);
      for (std::int16_t sample : audio.samples()) {
        const std::uint16_t raw = static_cast<std::uint16_t>(sample);
        *dst++ = static_cast<char>(raw & 0xff);
        *dst++ = static_cast<char>(raw >> 8);
      }
      break;
    }
    case MediaType::kVideo: {
      const VideoSegment& video = block.video();
      PutVarint64(out, static_cast<std::uint64_t>(video.fps()));
      PutVarint64(out, video.frame_count());
      PutVarint64(out, static_cast<std::uint64_t>(video.width()));
      PutVarint64(out, static_cast<std::uint64_t>(video.height()));
      const std::size_t frame_bytes = static_cast<std::size_t>(video.width()) *
                                      static_cast<std::size_t>(video.height()) * sizeof(Pixel);
      char* dst = GrowBy(out, video.frame_count() * frame_bytes);
      for (const Raster& frame : video.frames()) {
        dst = PutPixels(dst, frame);
      }
      break;
    }
    case MediaType::kImage:
    case MediaType::kGraphic: {
      const Raster& image = block.image();
      PutVarint64(out, static_cast<std::uint64_t>(image.width()));
      PutVarint64(out, static_cast<std::uint64_t>(image.height()));
      PutPixels(GrowBy(out, image.pixels().size() * sizeof(Pixel)), image);
      break;
    }
  }
  return out;
}

StatusOr<DataBlock> DecodeBlockPayload(std::string_view payload) {
  std::size_t pos = 0;
  CMIF_ASSIGN_OR_RETURN(std::uint64_t medium_raw, GetVarint64(payload, &pos));
  CMIF_ASSIGN_OR_RETURN(MediaType medium, CheckMediaType(medium_raw));
  CMIF_ASSIGN_OR_RETURN(bool is_generator, GetBool(payload, &pos));
  if (is_generator) {
    GeneratorSpec gen;
    CMIF_ASSIGN_OR_RETURN(gen.generator, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(gen.params, GetString(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(gen.duration, GetMediaTime(payload, &pos));
    CMIF_ASSIGN_OR_RETURN(std::uint64_t approx, GetVarint64(payload, &pos));
    if (approx > kMaxPlausibleBytes) {
      return DataLossError(StrFormat("implausible generator size %llu",
                                     static_cast<unsigned long long>(approx)));
    }
    gen.approx_bytes = static_cast<std::size_t>(approx);
    CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
    return DataBlock::FromGenerator(medium, std::move(gen));
  }
  switch (medium) {
    case MediaType::kText: {
      CMIF_ASSIGN_OR_RETURN(std::string text, GetString(payload, &pos));
      TextFormatting formatting;
      CMIF_ASSIGN_OR_RETURN(formatting.font, GetString(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::int64_t size, GetZigzag64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::int64_t indent, GetZigzag64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::int64_t vspace, GetZigzag64(payload, &pos));
      if (size < -(1 << 20) || size > (1 << 20) || indent < -(1 << 20) || indent > (1 << 20) ||
          vspace < -(1 << 20) || vspace > (1 << 20)) {
        return DataLossError(StrFormat("implausible text formatting at offset %zu", pos));
      }
      formatting.size = static_cast<int>(size);
      formatting.indent = static_cast<int>(indent);
      formatting.vspace = static_cast<int>(vspace);
      CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
      return DataBlock::FromText(TextBlock(std::move(text), formatting));
    }
    case MediaType::kAudio: {
      CMIF_ASSIGN_OR_RETURN(std::uint64_t rate, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t channels, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t frames, GetVarint64(payload, &pos));
      if (channels == 0) {
        if (rate != 0 || frames != 0) {
          return DataLossError("channel-less audio with a rate or frames");
        }
        CMIF_RETURN_IF_ERROR(CheckFullyConsumed(payload, pos));
        return DataBlock::FromAudio(AudioBuffer());
      }
      if (channels > 2 || rate == 0 || rate > kMaxAudioRate) {
        return DataLossError(StrFormat("implausible audio geometry (rate %llu, %llu channels)",
                                       static_cast<unsigned long long>(rate),
                                       static_cast<unsigned long long>(channels)));
      }
      if (frames > kMaxPlausibleBytes || payload.size() - pos != frames * channels * 2) {
        return DataLossError(StrFormat("audio of %llu frames truncated at offset %zu",
                                       static_cast<unsigned long long>(frames), pos));
      }
      AudioBuffer audio(static_cast<int>(rate), static_cast<int>(channels),
                        static_cast<std::size_t>(frames));
      for (std::uint64_t frame = 0; frame < frames; ++frame) {
        for (std::uint64_t channel = 0; channel < channels; ++channel) {
          std::uint16_t raw =
              static_cast<std::uint8_t>(payload[pos]) |
              static_cast<std::uint16_t>(static_cast<std::uint8_t>(payload[pos + 1])) << 8;
          pos += 2;
          audio.SetSample(static_cast<std::size_t>(frame), static_cast<int>(channel),
                          static_cast<std::int16_t>(raw));
        }
      }
      return DataBlock::FromAudio(std::move(audio));
    }
    case MediaType::kVideo: {
      CMIF_ASSIGN_OR_RETURN(std::uint64_t fps, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t frame_count, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t width, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t height, GetVarint64(payload, &pos));
      if (fps > kMaxVideoFps || (fps == 0 && frame_count > 0) || width > kMaxPixelDim ||
          height > kMaxPixelDim) {
        return DataLossError(StrFormat("implausible video geometry (%llu fps, %llux%llu)",
                                       static_cast<unsigned long long>(fps),
                                       static_cast<unsigned long long>(width),
                                       static_cast<unsigned long long>(height)));
      }
      // width/height are capped at kMaxPixelDim, so frame_bytes fits in 64
      // bits — but frame_count * frame_bytes can wrap. Bounding frame_count
      // by remaining / frame_bytes first keeps the product exact.
      const std::uint64_t frame_bytes = width * height * 3;
      const std::uint64_t remaining = payload.size() - pos;
      if (frame_count > 0 && frame_bytes == 0) {
        return DataLossError(StrFormat("implausible video geometry (%llu zero-area frames)",
                                       static_cast<unsigned long long>(frame_count)));
      }
      if (frame_count > kMaxPlausibleBytes ||
          (frame_bytes > 0 && frame_count > remaining / frame_bytes) ||
          remaining != frame_count * frame_bytes) {
        return DataLossError(StrFormat("video of %llu frames truncated at offset %zu",
                                       static_cast<unsigned long long>(frame_count), pos));
      }
      VideoSegment video(static_cast<int>(fps));
      for (std::uint64_t i = 0; i < frame_count; ++i) {
        Raster frame = GetRaster(payload, &pos, static_cast<int>(width), static_cast<int>(height));
        CMIF_RETURN_IF_ERROR(video.Append(std::move(frame)));
      }
      return DataBlock::FromVideo(std::move(video));
    }
    case MediaType::kImage:
    case MediaType::kGraphic: {
      CMIF_ASSIGN_OR_RETURN(std::uint64_t width, GetVarint64(payload, &pos));
      CMIF_ASSIGN_OR_RETURN(std::uint64_t height, GetVarint64(payload, &pos));
      if (width > kMaxPixelDim || height > kMaxPixelDim) {
        return DataLossError(StrFormat("implausible image geometry %llux%llu",
                                       static_cast<unsigned long long>(width),
                                       static_cast<unsigned long long>(height)));
      }
      if (payload.size() - pos != width * height * 3) {
        return DataLossError(StrFormat("image of %llux%llu truncated at offset %zu",
                                       static_cast<unsigned long long>(width),
                                       static_cast<unsigned long long>(height), pos));
      }
      Raster image = GetRaster(payload, &pos, static_cast<int>(width), static_cast<int>(height));
      return DataBlock::FromImage(std::move(image), medium);
    }
  }
  return DataLossError("unknown media type");
}

}  // namespace cmif
