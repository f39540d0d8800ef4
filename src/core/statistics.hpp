#pragma once
// Summary statistics, relative error and breakpoint interpolation.
//
// `Summary` provides the usual descriptive statistics for tests and for
// the google-benchmark harnesses.

#include <cstddef>
#include <span>

namespace pvc {

/// Descriptive statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
};

/// Computes summary statistics.  Returns a zeroed Summary for empty input.
[[nodiscard]] Summary summarize(std::span<const double> samples);

/// Relative error |a-b| / max(|a|,|b|); 0 when both are 0.
[[nodiscard]] double relative_error(double a, double b);

/// Linear interpolation of y(x) over sorted breakpoints.  Clamps outside
/// the table.  Used by calibration curves (e.g. scaling efficiency vs
/// active-stack count).
[[nodiscard]] double interpolate(std::span<const double> xs,
                                 std::span<const double> ys, double x);

}  // namespace pvc
