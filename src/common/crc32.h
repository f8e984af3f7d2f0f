// CRC-32 (IEEE 802.3 polynomial, reflected) over arbitrary bytes. Used by
// the DFS BlockStore to checksum every block payload at write time and verify
// it on every read, so silent corruption surfaces as kDataLoss instead of
// wrong answers. Table-driven, one byte per step, and dependency-free. It is
// not cheap: BlockStore::get runs it over every fetched block, and the
// e2e_ledger puts it at 19–40% of map-task busy time.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace s3 {

namespace internal {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0xedb88320U : 0U);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace internal

[[nodiscard]] constexpr std::uint32_t crc32(std::string_view data) {
  std::uint32_t crc = 0xffffffffU;
  for (const char c : data) {
    crc = (crc >> 8) ^
          internal::kCrc32Table[(crc ^ static_cast<unsigned char>(c)) & 0xffU];
  }
  return crc ^ 0xffffffffU;
}

static_assert(crc32("123456789") == 0xcbf43926U,
              "CRC-32 check value (IEEE) must match");

}  // namespace s3
