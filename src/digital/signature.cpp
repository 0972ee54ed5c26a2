#include "digital/signature.h"

#include <stdexcept>

namespace msbist::digital {

namespace {

std::uint32_t width_mask(unsigned bits) {
  return bits >= 32 ? ~0u : ((1u << bits) - 1u);
}

}  // namespace

Misr::Misr(unsigned width, std::uint32_t taps)
    : width_(width), taps_(taps), mask_(width_mask(width)) {
  if (width_ < 2 || width_ > 32) {
    throw std::invalid_argument("Misr: width must be in [2, 32]");
  }
  taps_ &= mask_;
}

void Misr::compact(std::uint32_t word) {
  // Shift-right MISR: feedback when the LSB falls out, then XOR the new
  // parallel word in.
  const std::uint32_t out = state_ & 1u;
  state_ >>= 1;
  if (out) state_ ^= taps_;
  state_ = (state_ ^ word) & mask_;
}

void Misr::compact_all(const std::vector<std::uint32_t>& words) {
  for (std::uint32_t w : words) compact(w);
}

}  // namespace msbist::digital
