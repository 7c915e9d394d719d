#include "src/base/crc32.h"

#include <array>
#include <cstddef>

namespace cmif {
namespace {

// kTables[0] is the classic bytewise table; kTables[k][i] advances the CRC
// of byte i through k further zero bytes, so eight lookups fold eight input
// bytes at once (slicing-by-8).
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

// Little-endian load assembled from bytes: independent of host byte order
// and alignment (compilers fuse it into one load where that is legal).
inline std::uint32_t Load32Le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ Load32Le(p);
    const std::uint32_t hi = Load32Le(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^ kTables[5][(lo >> 16) & 0xFF] ^
          kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

std::uint32_t Crc32(std::string_view bytes) { return Crc32Update(0, bytes); }

}  // namespace cmif
