#pragma once
// Chain of fused multiply-adds (clpeak-style, paper §IV-A1).
//
// Each work-item performs 16 x 128 dependent FMA operations.  The
// functional version really executes the chain on the host, which tests
// use to validate the flop accounting; the device time of the same
// chain on a simulated stack comes from the roofline model.

#include <cstddef>
#include <cstdint>

namespace pvc::kernels {

/// FMAs per work-item in the paper's kernel.
inline constexpr std::size_t kFmaPerWorkItem = 16 * 128;

/// Runs `work_items` dependent FMA chains, seeded per item; returns the
/// sum of final values (prevents the chains being optimized away).
[[nodiscard]] double fma_chain_fp64(std::size_t work_items, double a,
                                    double b);
[[nodiscard]] float fma_chain_fp32(std::size_t work_items, float a, float b);

/// Total floating-point operations executed by a chain run: each FMA
/// counts as two flops.
[[nodiscard]] constexpr double fma_chain_flops(std::size_t work_items) {
  return 2.0 * static_cast<double>(kFmaPerWorkItem) *
         static_cast<double>(work_items);
}

/// Closed form of one chain's final value for x0 = seed:
/// x_{k+1} = a*x_k + b  =>  x_n = a^n x_0 + b (a^n - 1)/(a - 1), a != 1.
[[nodiscard]] double fma_chain_expected(double seed, double a, double b,
                                        std::size_t iterations);

}  // namespace pvc::kernels
