#pragma once
// Reductions with controlled error growth.
//
// Pairwise, Kahan and naive host summation and a pairwise dot product.
// Only tests call them.

#include <span>

namespace pvc::kernels {

/// Pairwise (cascade) summation: O(log n) error growth.
[[nodiscard]] double pairwise_sum(std::span<const double> values);

/// Kahan compensated summation, for cross-checking.
[[nodiscard]] double kahan_sum(std::span<const double> values);

/// Naive left-to-right sum (error-growth baseline for tests).
[[nodiscard]] double naive_sum(std::span<const double> values);

/// Dot product with pairwise accumulation.
[[nodiscard]] double dot(std::span<const double> x,
                         std::span<const double> y);

}  // namespace pvc::kernels
