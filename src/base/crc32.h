// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum used
// to protect wire frames, persisted block payloads and persistent-cache
// entries against corruption in transit or on disk. Dependency-free
// slicing-by-8 kernel: eight 256-entry tables fold eight bytes per step,
// and the classic bytewise table finishes the tail, so results are
// bit-identical to the bytewise algorithm at any length or alignment. The
// standard check value is Crc32("123456789") == 0xCBF43926.
#ifndef SRC_BASE_CRC32_H_
#define SRC_BASE_CRC32_H_

#include <cstdint>
#include <string_view>

namespace cmif {

// CRC of a whole buffer.
std::uint32_t Crc32(std::string_view bytes);

// Incremental form: feed `bytes` into a running CRC (start from 0).
std::uint32_t Crc32Update(std::uint32_t crc, std::string_view bytes);

}  // namespace cmif

#endif  // SRC_BASE_CRC32_H_
