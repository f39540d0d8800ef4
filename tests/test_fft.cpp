// Unit tests for the host FFT (src/kernels/fft): transform correctness
// (power-of-two and Bluestein), 2D, real input, Parseval.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "kernels/fft.hpp"

namespace pvc::kernels {
namespace {

/// O(n^2) DFT oracle.
std::vector<cplx> naive_dft(std::span<const cplx> in, bool inverse) {
  const std::size_t n = in.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx sum(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
      sum += in[t] * cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) {
    x = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  return v;
}

class FftLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengths, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, n);
  std::vector<cplx> out(n);
  fft(in, out, false);
  const auto oracle = naive_dft(in, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(out[i] - oracle[i]), 0.0,
                1e-9 * static_cast<double>(n))
        << "bin " << i;
  }
}

// Power-of-two lengths use radix-2; the rest exercise Bluestein,
// including primes and the paper's non-power-of-two style sizes.
INSTANTIATE_TEST_SUITE_P(Lengths, FftLengths,
                         ::testing::Values(2u, 4u, 8u, 64u, 256u, 3u, 5u,
                                           7u, 12u, 100u, 125u, 200u, 97u));

TEST(Fft, RoundTripRestoresSignal) {
  for (std::size_t n : {128u, 100u, 97u}) {
    const auto in = random_signal(n, 2 * n);
    std::vector<cplx> freq(n);
    fft(in, freq, false);
    const auto back = fft_inverse_scaled(freq);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(back[i] - in[i]), 0.0, 1e-10 * n);
    }
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> in(64, cplx(0.0, 0.0));
  in[0] = cplx(1.0, 0.0);
  const auto out = fft_forward(in);
  for (const auto& v : out) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 48;  // Bluestein path
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<cplx> ab(n);
  for (std::size_t i = 0; i < n; ++i) {
    ab[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  const auto fa = fft_forward(a);
  const auto fb = fft_forward(b);
  const auto fab = fft_forward(ab);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(fab[i] - (2.0 * fa[i] + 3.0 * fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConserved) {
  const std::size_t n = 256;
  const auto in = random_signal(n, 3);
  const auto out = fft_forward(in);
  double time_energy = 0.0, freq_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    time_energy += std::norm(in[i]);
    freq_energy += std::norm(out[i]);
  }
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n), 1e-7 * n);
}

TEST(Fft, RealTransformHasHermitianSymmetry) {
  Rng rng(4);
  std::vector<double> in(60);
  for (auto& v : in) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto spec = fft_real(in);
  const std::size_t n = in.size();
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(std::abs(spec[k] - std::conj(spec[n - k])), 0.0, 1e-10);
  }
}

TEST(Fft2d, SeparableAgainstRowColumnOracle) {
  const std::size_t rows = 12, cols = 16;
  auto data = random_signal(rows * cols, 5);
  auto expect = data;
  // Oracle: naive DFT rows then columns.
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<cplx> row(expect.begin() + static_cast<std::ptrdiff_t>(r * cols),
                          expect.begin() +
                              static_cast<std::ptrdiff_t>((r + 1) * cols));
    const auto out = naive_dft(row, false);
    std::copy(out.begin(), out.end(),
              expect.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<cplx> col(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      col[r] = expect[r * cols + c];
    }
    const auto out = naive_dft(col, false);
    for (std::size_t r = 0; r < rows; ++r) {
      expect[r * cols + c] = out[r];
    }
  }
  fft_2d(data, rows, cols, false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - expect[i]), 0.0, 1e-8);
  }
}

TEST(Fft2d, RoundTrip) {
  const std::size_t rows = 10, cols = 10;  // Bluestein both axes
  const auto original = random_signal(rows * cols, 6);
  auto data = original;
  fft_2d(data, rows, cols, false);
  fft_2d(data, rows, cols, true);
  const double scale = 1.0 / static_cast<double>(rows * cols);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] * scale - original[i]), 0.0, 1e-9);
  }
}

TEST(Fft, ValidatesArguments) {
  std::vector<cplx> v(8), out(7);
  EXPECT_THROW(fft(v, out, false), pvc::Error);
  EXPECT_THROW(fft(std::span<const cplx>(v.data(), v.size()),
                   std::span<cplx>(v.data(), v.size()), false),
               pvc::Error);  // aliasing
  std::vector<cplx> odd(6);
  EXPECT_THROW(fft_pow2_inplace(odd, false), pvc::Error);
  EXPECT_THROW(fft_2d(v, 3, 3, false), pvc::Error);  // shape mismatch
}

}  // namespace
}  // namespace pvc::kernels
