#include "kernels/gemm.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"

namespace pvc::kernels {
namespace {

// Block sizes tuned for L1-resident panels on typical hosts; correctness
// does not depend on them.
constexpr std::size_t kBlockI = 64;
constexpr std::size_t kBlockJ = 64;
constexpr std::size_t kBlockK = 64;

template <typename T>
void check_shapes(std::size_t m, std::size_t n, std::size_t k,
                  std::span<const T> a, std::span<const T> b,
                  std::size_t c_size) {
  ensure(a.size() == m * k, "gemm: A must be m*k");
  ensure(b.size() == k * n, "gemm: B must be k*n");
  ensure(c_size == m * n, "gemm: C must be m*n");
}

/// Generic blocked kernel: In = input element type, Acc = accumulator.
/// `load` converts an input element to Acc.
template <typename In, typename Acc, typename Load>
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                  std::span<const In> a, std::span<const In> b,
                  std::span<Acc> c, Load load) {
  std::fill(c.begin(), c.end(), Acc(0));
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockI) {
    const std::size_t i1 = std::min(m, i0 + kBlockI);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(k, p0 + kBlockK);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
        const std::size_t j1 = std::min(n, j0 + kBlockJ);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t p = p0; p < p1; ++p) {
            const Acc aval = load(a[i * k + p]);
            const In* brow = &b[p * n];
            Acc* crow = &c[i * n];
            for (std::size_t j = j0; j < j1; ++j) {
              crow[j] += aval * load(brow[j]);
            }
          }
        }
      }
    }
  }
}

template <typename T>
void gemm_scaled(std::size_t m, std::size_t n, std::size_t k, T alpha,
                 std::span<const T> a, std::span<const T> b, T beta,
                 std::span<T> c) {
  check_shapes(m, n, k, a, b, c.size());
  std::vector<T> product(m * n, T(0));
  gemm_blocked<T, T>(m, n, k, a, b, std::span<T>(product),
                     [](T v) { return v; });
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = alpha * product[i] + beta * c[i];
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
          std::span<const double> a, std::span<const double> b, double beta,
          std::span<double> c) {
  gemm_scaled(m, n, k, alpha, a, b, beta, c);
}

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
          std::span<const float> a, std::span<const float> b, float beta,
          std::span<float> c) {
  gemm_scaled(m, n, k, alpha, a, b, beta, c);
}

void gemm_fp16(std::size_t m, std::size_t n, std::size_t k,
               std::span<const half_t> a, std::span<const half_t> b,
               std::span<float> c) {
  check_shapes(m, n, k, a, b, c.size());
  gemm_blocked<half_t, float>(m, n, k, a, b, c,
                              [](half_t v) { return v.to_float(); });
}

void gemm_bf16(std::size_t m, std::size_t n, std::size_t k,
               std::span<const bfloat16_t> a, std::span<const bfloat16_t> b,
               std::span<float> c) {
  check_shapes(m, n, k, a, b, c.size());
  gemm_blocked<bfloat16_t, float>(m, n, k, a, b, c,
                                  [](bfloat16_t v) { return v.to_float(); });
}

void gemm_tf32(std::size_t m, std::size_t n, std::size_t k,
               std::span<const tf32_t> a, std::span<const tf32_t> b,
               std::span<float> c) {
  check_shapes(m, n, k, a, b, c.size());
  gemm_blocked<tf32_t, float>(m, n, k, a, b, c,
                              [](tf32_t v) { return v.to_float(); });
}

void gemm_i8(std::size_t m, std::size_t n, std::size_t k,
             std::span<const std::int8_t> a, std::span<const std::int8_t> b,
             std::span<std::int32_t> c) {
  check_shapes(m, n, k, a, b, c.size());
  gemm_blocked<std::int8_t, std::int32_t>(
      m, n, k, a, b, c,
      [](std::int8_t v) { return static_cast<std::int32_t>(v); });
}

}  // namespace pvc::kernels
