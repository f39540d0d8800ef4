#pragma once
// Relative error between a model value and its reference, and
// breakpoint interpolation.

#include <span>

namespace pvc {

/// Relative error |a-b| / max(|a|,|b|); 0 when both are 0.
[[nodiscard]] double relative_error(double a, double b);

/// Linear interpolation of y(x) over sorted breakpoints.  Clamps outside
/// the table.  Only tests call it.
[[nodiscard]] double interpolate(std::span<const double> xs,
                                 std::span<const double> ys, double x);

}  // namespace pvc
