// Unit tests for the host GEMM (src/kernels/gemm): correctness across
// precisions against a naive oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "kernels/gemm.hpp"

namespace pvc::kernels {
namespace {

/// Naive triple loop used as the oracle.
std::vector<double> naive_gemm(std::size_t m, std::size_t n, std::size_t k,
                               const std::vector<double>& a,
                               const std::vector<double>& b) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += a[i * k + p] * b[p * n + j];
      }
    }
  }
  return c;
}

struct GemmShape {
  std::size_t m, n, k;
};

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, MatchesNaiveOracle) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000 + n * 100 + k);
  std::vector<double> a(m * k), b(k * n), c(m * n, 0.0);
  for (auto& v : a) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  gemm(m, n, k, 1.0, std::span<const double>(a), std::span<const double>(b),
       0.0, std::span<double>(c));
  const auto oracle = naive_gemm(m, n, k, a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], oracle[i], 1e-10 * static_cast<double>(k))
        << "element " << i;
  }
}

// Shapes straddle the 64-wide blocking: below, at, above, and ragged.
INSTANTIATE_TEST_SUITE_P(
    BlockingBoundaries, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{63, 64, 65}, GemmShape{64, 64, 64},
                      GemmShape{65, 63, 64}, GemmShape{128, 32, 96},
                      GemmShape{100, 100, 1}, GemmShape{1, 100, 100}));

TEST(Gemm, AlphaBetaScaling) {
  const std::size_t n = 8;
  std::vector<double> a(n * n, 0.0), b(n * n, 0.0), c(n * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] = 2.0;  // A = 2I
    b[i * n + i] = 3.0;  // B = 3I
  }
  // C = 0.5 * A*B + 2.0 * C = 0.5*6I + 2*ones.
  gemm(n, n, n, 0.5, std::span<const double>(a), std::span<const double>(b),
       2.0, std::span<double>(c));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(c[i * n + j], i == j ? 5.0 : 2.0);
    }
  }
}

TEST(Gemm, Fp32PathMatchesFp64Loosely) {
  const std::size_t n = 48;
  Rng rng(11);
  std::vector<float> af(n * n), bf(n * n), cf(n * n);
  std::vector<double> ad(n * n), bd(n * n), cd(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ad[i] = rng.uniform(-1.0, 1.0);
    bd[i] = rng.uniform(-1.0, 1.0);
    af[i] = static_cast<float>(ad[i]);
    bf[i] = static_cast<float>(bd[i]);
  }
  gemm(n, n, n, 1.0f, std::span<const float>(af), std::span<const float>(bf),
       0.0f, std::span<float>(cf));
  gemm(n, n, n, 1.0, std::span<const double>(ad), std::span<const double>(bd),
       0.0, std::span<double>(cd));
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_NEAR(cf[i], cd[i], 1e-4);
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  std::vector<double> a(6), b(6), c(5);
  EXPECT_THROW(gemm(2, 3, 3, 1.0, std::span<const double>(a),
                    std::span<const double>(b), 0.0, std::span<double>(c)),
               pvc::Error);
}

TEST(GemmNarrow, Fp16AccumulatesInFp32) {
  const std::size_t n = 32;
  Rng rng(12);
  std::vector<half_t> a(n * n), b(n * n);
  std::vector<double> ad(n * n), bd(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    const float v1 = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float v2 = static_cast<float>(rng.uniform(-1.0, 1.0));
    a[i] = half_t::from_float(v1);
    b[i] = half_t::from_float(v2);
    ad[i] = a[i].to_float();  // oracle uses the quantized values
    bd[i] = b[i].to_float();
  }
  std::vector<float> c(n * n);
  gemm_fp16(n, n, n, std::span<const half_t>(a),
            std::span<const half_t>(b), std::span<float>(c));
  const auto oracle = naive_gemm(n, n, n, ad, bd);
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_NEAR(c[i], oracle[i], 1e-3);
  }
}

TEST(GemmNarrow, Bf16AndTf32Paths) {
  const std::size_t n = 16;
  std::vector<bfloat16_t> ab(n * n), bb(n * n);
  std::vector<tf32_t> at(n * n), bt(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ab[i] = bfloat16_t::from_float(1.0f);
    bb[i] = bfloat16_t::from_float(0.5f);
    at[i] = tf32_t::from_float(1.0f);
    bt[i] = tf32_t::from_float(0.5f);
  }
  std::vector<float> cb(n * n), ct(n * n);
  gemm_bf16(n, n, n, std::span<const bfloat16_t>(ab),
            std::span<const bfloat16_t>(bb), std::span<float>(cb));
  gemm_tf32(n, n, n, std::span<const tf32_t>(at),
            std::span<const tf32_t>(bt), std::span<float>(ct));
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_FLOAT_EQ(cb[i], 8.0f);  // n * 1 * 0.5
    EXPECT_FLOAT_EQ(ct[i], 8.0f);
  }
}

TEST(GemmNarrow, I8IsExactInInt32) {
  const std::size_t n = 24;
  Rng rng(13);
  std::vector<std::int8_t> a(n * n), b(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<std::int8_t>(rng.uniform_index(255)) ;
    b[i] = static_cast<std::int8_t>(rng.uniform_index(255));
  }
  std::vector<std::int32_t> c(n * n);
  gemm_i8(n, n, n, std::span<const std::int8_t>(a),
          std::span<const std::int8_t>(b), std::span<std::int32_t>(c));
  // Exact integer oracle.
  for (std::size_t i = 0; i < n; i += 7) {
    for (std::size_t j = 0; j < n; j += 5) {
      std::int64_t expected = 0;
      for (std::size_t p = 0; p < n; ++p) {
        expected += static_cast<std::int64_t>(a[i * n + p]) * b[p * n + j];
      }
      EXPECT_EQ(c[i * n + j], expected);
    }
  }
}

}  // namespace
}  // namespace pvc::kernels
