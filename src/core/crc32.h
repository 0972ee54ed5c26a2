// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the framing
// checksum of the service journal (src/service/journal.h).
//
// Header-only and dependency-free like core/json.h: the journal frames
// each record line as "<crc32-hex> <payload>" so recovery can tell a
// torn or bit-rotted tail from a valid record without trusting the
// payload parser. The table is built at compile time; crc32() over a
// buffer is the standard byte-at-a-time table walk. That is not free: a
// result record carries a whole report, so a 4,096-die lockstep job
// checksums about 2 MB, a few milliseconds (ROADMAP.md tracks a faster
// walk).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace msbist::core {

namespace detail {

consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// CRC-32 of `data`, optionally continuing a running checksum (pass the
/// previous return value as `seed` to checksum a buffer in pieces).
inline std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    c = detail::kCrc32Table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// The journal's fixed-width framing rendering: 8 lowercase hex digits.
inline std::string crc32_hex(std::uint32_t crc) {
  static const char* hex = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[crc & 0xFu];
    crc >>= 4;
  }
  return out;
}

}  // namespace msbist::core
