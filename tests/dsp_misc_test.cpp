// Unit tests for windows, spectra and noise.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/noise.h"
#include "dsp/spectrum.h"
#include "dsp/vec.h"
#include "dsp/window.h"
#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

TEST(Window, RectangularIsAllOnes) {
  const auto w = window(WindowKind::kRectangular, 8);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndpointsAreZero) {
  const auto w = window(WindowKind::kHann, 16);
  EXPECT_NEAR(w.front(), 0.0, 1e-15);
  EXPECT_NEAR(w.back(), 0.0, 1e-15);
  EXPECT_NEAR(w[8], 1.0, 0.05);
}

TEST(Window, SymmetryProperty) {
  for (auto kind : {WindowKind::kHann, WindowKind::kHamming, WindowKind::kBlackman}) {
    const auto w = window(kind, 21);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    }
  }
}

TEST(Window, EdgeSizes) {
  EXPECT_TRUE(window(WindowKind::kHann, 0).empty());
  const auto w1 = window(WindowKind::kBlackman, 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_DOUBLE_EQ(w1[0], 1.0);
}

TEST(Window, CoherentGainRectangularIsOne) {
  EXPECT_DOUBLE_EQ(coherent_gain(WindowKind::kRectangular, 64), 1.0);
  EXPECT_NEAR(coherent_gain(WindowKind::kHann, 4096), 0.5, 1e-3);
}

TEST(Spectrum, SineAmplitudeRecovered) {
  const std::size_t n = 1024;
  const double fs = 1e4, f0 = fs * 32.0 / static_cast<double>(n), amp = 1.7;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(2.0 * std::numbers::pi * f0 * static_cast<double>(i) / fs);
  }
  const auto mag = magnitude_spectrum(x, WindowKind::kRectangular);
  const auto freqs = spectrum_frequencies(n, fs);
  const std::size_t peak = argmax(mag);
  EXPECT_NEAR(freqs[peak], f0, fs / static_cast<double>(n));
  EXPECT_NEAR(mag[peak], amp, 0.01);
}

TEST(Spectrum, DcComponentNotDoubled) {
  const std::vector<double> x(64, 2.0);
  const auto mag = magnitude_spectrum(x, WindowKind::kRectangular);
  EXPECT_NEAR(mag[0], 2.0, 1e-9);
}

TEST(Noise, Deterministic) {
  const auto a = gaussian_noise(100, 1.0, 42);
  const auto b = gaussian_noise(100, 1.0, 42);
  EXPECT_EQ(a, b);
  const auto c = gaussian_noise(100, 1.0, 43);
  EXPECT_NE(a, c);
}

TEST(Noise, SigmaScales) {
  const auto x = gaussian_noise(50000, 2.0, 7);
  EXPECT_NEAR(stddev(x), 2.0, 0.05);
  EXPECT_NEAR(mean(x), 0.0, 0.05);
}

TEST(Noise, ZeroSigmaIsSilent) {
  const auto x = gaussian_noise(10, 0.0, 1);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace msbist::dsp
