// Signature-analysis register (MISR compactor).
//
// The paper's compressed test "configured the built-in self test macros to
// perform a quick functional test of the ADC by compressing the digital
// output signature from the consecutive application of the DC step input
// values" — the compactor here is a standard multiple-input signature
// register.
#pragma once

#include <cstdint>
#include <vector>

namespace msbist::digital {

/// Multiple-input signature register: compacts a stream of parallel words
/// into a fixed-width signature. Identical input streams always produce
/// identical signatures; a single corrupted word changes the signature
/// with aliasing probability ~2^-width.
class Misr {
 public:
  /// width in [2, 32]; taps as Galois mask; default is the CCITT-ish
  /// 16-bit x^16 + x^12 + x^5 + 1.
  explicit Misr(unsigned width = 16, std::uint32_t taps = 0x8810);

  /// Absorb one parallel word (truncated to the register width).
  void compact(std::uint32_t word);
  /// Absorb a whole sequence.
  void compact_all(const std::vector<std::uint32_t>& words);

  std::uint32_t signature() const { return state_; }
  unsigned width() const { return width_; }

 private:
  unsigned width_;
  std::uint32_t taps_;
  std::uint32_t mask_;
  std::uint32_t state_ = 0;
};

}  // namespace msbist::digital
