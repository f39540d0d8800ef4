#include "core/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace pvc {

double relative_error(double a, double b) {
  const double denom = std::max(std::fabs(a), std::fabs(b));
  if (denom == 0.0) {
    return 0.0;
  }
  return std::fabs(a - b) / denom;
}

double interpolate(std::span<const double> xs, std::span<const double> ys,
                   double x) {
  ensure(xs.size() == ys.size() && !xs.empty(),
         "interpolate: xs/ys must be equal-sized and non-empty");
  if (x <= xs.front()) {
    return ys.front();
  }
  if (x >= xs.back()) {
    return ys.back();
  }
  // xs is sorted ascending; find the bracketing segment.
  std::size_t hi = 1;
  while (xs[hi] < x) {
    ++hi;
  }
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

}  // namespace pvc
