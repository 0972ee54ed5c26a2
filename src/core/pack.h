// LZ77 text packing for retained report documents.
//
// Header-only and dependency-free like core/crc32.h. msbistd keeps every
// retained job's report in memory until its byte budget evicts it, and a
// report is JSON: keys, envelopes and per-die records repeat, so an
// LZ77 pass shrinks a full-spec lot's report about 4x. pack() writes an
// LZ4-style token stream; unpack() checks every length and offset
// against its input and the stated raw size, and throws
// std::runtime_error on a stream it cannot decode exactly.
//
// Stream format, a run of sequences:
//
//   token   one byte: high nibble = literal count, low nibble = match
//           length - 4 (a nibble of 15 continues in a varint: LEB128,
//           7 bits per byte, low group first, added to the 15)
//   [varint literal count extension]  literals
//   offset  two bytes, little-endian, 1..65535 back into the output
//   [varint match length extension]
//
// The last sequence stops after its literals (its match nibble is 0, and
// it is there even when it holds none, so the empty text packs to one
// zero byte); every other one carries a match. A match may overlap its
// own output (offset < length), which is how a run of one byte packs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace msbist::core {

namespace detail {

inline constexpr std::size_t kPackMinMatch = 4;
inline constexpr std::size_t kPackWindow = 65535;  ///< largest offset
inline constexpr unsigned kPackHashBits = 15;

inline std::uint32_t pack_load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t pack_hash(std::uint32_t word) {
  return (word * 2654435761u) >> (32 - kPackHashBits);
}

/// Bytes a[0..) and b[0..) have in common, up to `limit`.
inline std::size_t pack_common(const char* a, const char* b, std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t x, y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (x != y) break;
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

inline void pack_varint(std::string& out, std::size_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// One sequence: literals, then (unless match_len is 0) a match.
inline void pack_sequence(std::string& out, std::string_view literals,
                          std::size_t offset, std::size_t match_len) {
  const std::size_t lit_nibble = std::min<std::size_t>(literals.size(), 15);
  const std::size_t match_code = match_len == 0 ? 0 : match_len - kPackMinMatch;
  const std::size_t match_nibble = std::min<std::size_t>(match_code, 15);
  out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) pack_varint(out, literals.size() - 15);
  out.append(literals);
  if (match_len == 0) return;
  out.push_back(static_cast<char>(offset & 0xFF));
  out.push_back(static_cast<char>(offset >> 8));
  if (match_nibble == 15) pack_varint(out, match_code - 15);
}

/// Copy n bytes in 16-byte steps: up to 15 bytes past dst + n are
/// written and past src + n read, so the caller checks that both buffers
/// have that room. Most sequences are a few bytes long, and one fixed
/// 16-byte move is far cheaper than a memcpy of a variable count.
inline void pack_copy16(char* dst, const char* src, std::size_t n) {
  for (std::size_t k = 0; k < n; k += 16) std::memcpy(dst + k, src + k, 16);
}

[[noreturn]] inline void unpack_fail(const char* what) {
  throw std::runtime_error(std::string("core::unpack: ") + what);
}

}  // namespace detail

/// Pack `raw` (any bytes). The result is sized to fit: it is meant to be
/// kept.
inline std::string pack(std::string_view raw) {
  using namespace detail;
  std::string out;
  const std::size_t n = raw.size();
  out.reserve(n / 2 + 16);
  const char* const base = raw.data();
  // Hash of the 4 bytes at a position -> that position + 1 (0 = none).
  std::vector<std::uint32_t> table(std::size_t{1} << kPackHashBits, 0);
  const auto remember = [&](std::size_t pos) {
    table[pack_hash(pack_load32(base + pos))] = static_cast<std::uint32_t>(pos + 1);
  };
  std::size_t anchor = 0;  // first byte not yet emitted
  std::size_t pos = 0;
  while (pos + kPackMinMatch <= n) {
    const std::uint32_t word = pack_load32(base + pos);
    std::uint32_t& slot = table[pack_hash(word)];
    const std::size_t candidate = slot;
    slot = static_cast<std::uint32_t>(pos + 1);
    if (candidate == 0 || pos - (candidate - 1) > kPackWindow ||
        pack_load32(base + candidate - 1) != word) {
      // Step faster through bytes that keep missing (incompressible data).
      pos += 1 + ((pos - anchor) >> 6);
      continue;
    }
    std::size_t ref = candidate - 1;
    std::size_t len =
        kPackMinMatch + pack_common(base + ref + kPackMinMatch,
                                    base + pos + kPackMinMatch,
                                    n - pos - kPackMinMatch);
    // Grow the match backwards over literals it also covers.
    while (pos > anchor && ref > 0 && base[pos - 1] == base[ref - 1]) {
      --pos;
      --ref;
      ++len;
    }
    pack_sequence(out, raw.substr(anchor, pos - anchor), pos - ref, len);
    pos += len;
    anchor = pos;
    if (pos - 2 + kPackMinMatch <= n) remember(pos - 2);
  }
  pack_sequence(out, raw.substr(anchor), 0, 0);
  out.shrink_to_fit();
  return out;
}

/// Decode pack() output onto the end of `out`. `raw_size` is the packed
/// text's size; a stream that does not decode to exactly that many bytes
/// throws std::runtime_error (what it appended by then is unspecified).
inline void unpack_append(std::string_view packed, std::size_t raw_size,
                          std::string& out) {
  using namespace detail;
  const std::size_t start = out.size();
  out.resize(start + raw_size);
  char* const dst = out.data() + start;
  std::size_t at = 0;  // bytes written
  std::size_t in = 0;  // bytes read
  const auto length = [&](std::size_t nibble) {
    if (nibble < 15) return nibble;
    std::size_t extra = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (in == packed.size()) unpack_fail("truncated length");
      if (shift > 56) unpack_fail("length varint too long");
      const auto byte = static_cast<unsigned char>(packed[in++]);
      extra |= static_cast<std::size_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
    }
    if (extra > raw_size) unpack_fail("length exceeds the raw size");
    return 15 + extra;
  };
  for (;;) {
    if (in == packed.size()) unpack_fail("stream ends before its last sequence");
    const auto token = static_cast<unsigned char>(packed[in++]);
    const std::size_t literals = length(token >> 4);
    if (literals > packed.size() - in || literals > raw_size - at) {
      unpack_fail("literals overrun");
    }
    // Bytes written past a copy lie ahead of `at` and are rewritten by the
    // copies after it before anything reads them.
    if (packed.size() - in - literals >= 15 && raw_size - at - literals >= 15) {
      pack_copy16(dst + at, packed.data() + in, literals);
    } else {
      std::memcpy(dst + at, packed.data() + in, literals);
    }
    in += literals;
    at += literals;
    if (in == packed.size()) {
      if ((token & 0x0F) != 0) unpack_fail("truncated match");
      break;
    }
    if (packed.size() - in < 2) unpack_fail("truncated offset");
    const std::size_t offset = static_cast<unsigned char>(packed[in]) |
                               (static_cast<unsigned char>(packed[in + 1]) << 8);
    in += 2;
    if (offset == 0 || offset > at) unpack_fail("offset outside the output");
    const std::size_t len = length(token & 0x0F) + kPackMinMatch;
    if (len > raw_size - at) unpack_fail("match overruns the raw size");
    if (offset >= 16 && raw_size - at - len >= 15) {
      // Each step reads only bytes already final, at least 16 back.
      pack_copy16(dst + at, dst + at - offset, len);
    } else if (offset >= len) {
      std::memcpy(dst + at, dst + at - offset, len);
    } else {
      for (std::size_t k = 0; k < len; ++k) dst[at + k] = dst[at + k - offset];
    }
    at += len;
  }
  if (at != raw_size) unpack_fail("text shorter than the raw size");
}

inline std::string unpack(std::string_view packed, std::size_t raw_size) {
  std::string out;
  unpack_append(packed, raw_size, out);
  return out;
}

/// A text held packed, immutable once built: msbistd's retained report
/// documents (service::ReportBuffer).
class PackedText {
 public:
  explicit PackedText(std::string_view raw)
      : packed_(pack(raw)), raw_size_(raw.size()) {}

  std::string_view packed() const { return packed_; }
  /// Size of the text itself, what the retention budget charges.
  std::size_t raw_size() const { return raw_size_; }
  std::string text() const { return unpack(packed_, raw_size_); }
  /// The text onto the end of `out`: into a reused buffer, or straight
  /// into the document that embeds it.
  void append_text(std::string& out) const {
    unpack_append(packed_, raw_size_, out);
  }

 private:
  std::string packed_;
  std::size_t raw_size_;
};

}  // namespace msbist::core
