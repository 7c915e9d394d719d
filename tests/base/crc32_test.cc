#include "src/base/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/random.h"

namespace cmif {
namespace {

// The textbook bitwise CRC-32 (reflected 0xEDB88320), kept independent of
// the production kernel so the equivalence tests below compare two
// implementations rather than one with itself.
std::uint32_t ReferenceCrc32Update(std::uint32_t crc, std::string_view bytes) {
  crc = ~crc;
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::string RandomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.Next() & 0xFF);
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32(""), 0u); }

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, SensitiveToSingleBitFlips) {
  std::string payload(256, 'x');
  std::uint32_t clean = Crc32(payload);
  for (std::size_t i : {std::size_t{0}, payload.size() / 2, payload.size() - 1}) {
    std::string mutated = payload;
    mutated[i] = static_cast<char>(mutated[i] ^ 1);
    EXPECT_NE(Crc32(mutated), clean) << "flip at " << i;
  }
}

TEST(Crc32Test, IncrementalUpdateMatchesOneShot) {
  std::string text = "split across several update calls";
  std::uint32_t crc = 0;
  crc = Crc32Update(crc, text.substr(0, 5));
  crc = Crc32Update(crc, text.substr(5, 11));
  crc = Crc32Update(crc, "");
  crc = Crc32Update(crc, text.substr(16));
  EXPECT_EQ(crc, Crc32(text));
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1024 cover every tail length after every whole number of
  // eight-byte steps; the eight start offsets cover every alignment of the
  // first load.
  const std::string buffer = RandomBytes(1024 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::string_view bytes = std::string_view(buffer).substr(align, length);
      ASSERT_EQ(Crc32(bytes), ReferenceCrc32Update(0, bytes))
          << "align=" << align << " length=" << length;
    }
  }
}

TEST(Crc32Test, EverySplitPointMatchesOneShot) {
  const std::string buffer = RandomBytes(300, 2);
  const std::uint32_t whole = ReferenceCrc32Update(0, buffer);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::string_view bytes(buffer);
    const std::uint32_t head = Crc32Update(0, bytes.substr(0, split));
    ASSERT_EQ(head, ReferenceCrc32Update(0, bytes.substr(0, split))) << "split=" << split;
    ASSERT_EQ(Crc32Update(head, bytes.substr(split)), whole) << "split=" << split;
  }
}

TEST(Crc32Test, LargeRandomBufferMatchesReference) {
  const std::string buffer = RandomBytes(4u << 20, 3);
  EXPECT_EQ(Crc32(buffer), ReferenceCrc32Update(0, buffer));
}

}  // namespace
}  // namespace cmif
