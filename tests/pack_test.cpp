// core/pack.h: the LZ77 codec msbistd holds retained reports in.
//
// Every round trip must give back the exact bytes, whatever their shape,
// and a stream that cannot decode to exactly its stated size must throw
// rather than hand back a plausible wrong report.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/pack.h"

namespace msbist::core {
namespace {

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng() & 0xFF);
  return out;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MSBIST_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// pack() then unpack(), checked byte for byte; returns the packed size.
std::size_t round_trip(const std::string& raw, const std::string& what) {
  const PackedText packed(raw);
  EXPECT_EQ(packed.raw_size(), raw.size()) << what;
  EXPECT_EQ(packed.text(), raw) << what;
  // Appended after other text, a match never reaches back into it.
  std::string document = "{\"report\":";
  packed.append_text(document);
  EXPECT_EQ(document, "{\"report\":" + raw) << what;
  return packed.packed().size();
}

bool unpack_throws(std::string_view packed, std::size_t raw_size) {
  try {
    (void)unpack(packed, raw_size);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

TEST(Pack, RoundTripsTinyInputs) {
  EXPECT_EQ(round_trip("", "empty"), 1u);
  round_trip("x", "one byte");
  round_trip("abcd", "four bytes");
  round_trip("abcdabcd", "one four-byte match");
}

TEST(Pack, IncompressibleBytesGrowByLittle) {
  const std::string raw = random_bytes(100'000, 7);
  EXPECT_LE(round_trip(raw, "random"), raw.size() + raw.size() / 200 + 16);
}

TEST(Pack, MebibyteRunOfOneBytePacksToAFewBytes) {
  const std::string raw(std::size_t{1} << 20, 'z');
  EXPECT_LT(round_trip(raw, "run"), 64u);
}

TEST(Pack, MatchesReachExactlyTheWindow) {
  // A random block recurs after a compressible filler: at distance 65535
  // (the largest offset) it packs as a match, at 65536 it cannot.
  const std::string block = random_bytes(512, 11);
  const auto layout = [&](std::size_t distance) {
    std::string raw = block;
    while (raw.size() < distance) raw += "filler ";
    raw.resize(distance);
    return raw + block;
  };
  const std::string inside = layout(65535);
  const std::string outside = layout(65536);
  const std::size_t packed_inside = round_trip(inside, "inside");
  const std::size_t packed_outside = round_trip(outside, "outside");
  EXPECT_LT(packed_inside + 400, packed_outside);
}

TEST(Pack, RoundTripsTheCommittedGoldenReports) {
  for (const char* name : {"fullspec_lot_1995x24.report.json",
                           "lockstep_screen_1995x100.report.json"}) {
    const std::string raw = read_golden(name);
    ASSERT_GT(raw.size(), 1000u) << name;
    // JSON reports repeat their keys and record shapes: well under half.
    EXPECT_LT(round_trip(raw, name), raw.size() / 2) << name;
  }
}

// The decoder moves short sequences 16 bytes at a time while the output
// has room past them and falls back near its end: every text length puts
// that edge on a different sequence.
TEST(Pack, RoundTripsEveryPrefixOfAReport) {
  const std::string raw = read_golden("fullspec_lot_1995x24.report.json");
  for (std::size_t size = 0; size <= 400; ++size) {
    round_trip(raw.substr(0, size), "prefix of " + std::to_string(size) + " bytes");
  }
}

TEST(Pack, TruncatedStreamsThrow) {
  const std::string raw = read_golden("fullspec_lot_1995x24.report.json");
  const std::string packed = pack(raw);
  for (std::size_t cut = 0; cut < packed.size(); cut += 97) {
    EXPECT_TRUE(unpack_throws(std::string_view(packed).substr(0, cut), raw.size()))
        << "prefix of " << cut << " bytes";
  }
  for (std::size_t cut = packed.size() - 16; cut < packed.size(); ++cut) {
    EXPECT_TRUE(unpack_throws(std::string_view(packed).substr(0, cut), raw.size()))
        << "prefix of " << cut << " bytes";
  }
  EXPECT_TRUE(unpack_throws("", 0));
  // The stream, but a wrong size for it.
  EXPECT_TRUE(unpack_throws(packed, raw.size() - 1));
  EXPECT_TRUE(unpack_throws(packed, raw.size() + 1));
  EXPECT_EQ(unpack(packed, raw.size()), raw);
}

TEST(Pack, CorruptStreamsThrow) {
  using namespace std::string_literals;
  // Each stream is one token byte, then its literals and match fields.
  EXPECT_TRUE(unpack_throws("\x10" "a" "\x00\x00"s, 5));  // offset 0
  EXPECT_TRUE(unpack_throws("\x10" "a" "\x02\x00"s, 5));  // before the output
  EXPECT_TRUE(unpack_throws("\x10" "a" "\x01"s, 5));      // half an offset
  EXPECT_TRUE(unpack_throws("\x11" "a"s, 1));             // final with a match
  EXPECT_TRUE(unpack_throws("\x50" "ab"s, 5));            // literals past the end
  EXPECT_TRUE(unpack_throws("\x1f" "a" "\x01\x00\xff"s, 400));  // varint cut off
  EXPECT_TRUE(unpack_throws("\xf0" + std::string(12, '\xff') + "\x01"s, 100));
  EXPECT_TRUE(unpack_throws("\x10" "a" "\x01\x00" "\x00"s, 4));  // match past size
  EXPECT_TRUE(unpack_throws("\x00" "\x00"s, 0));          // bytes after the end
  // The well-formed neighbours of those streams decode.
  EXPECT_EQ(unpack("\x10" "a" "\x01\x00" "\x00"s, 5), "aaaaa");
  EXPECT_EQ(unpack("\x20" "ab"s, 2), "ab");
}

}  // namespace
}  // namespace msbist::core
