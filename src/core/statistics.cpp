#include "core/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.hpp"

namespace pvc {

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);
  const std::size_t mid = s.count / 2;
  s.median = (s.count % 2 == 1) ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
  if (s.count > 1) {
    double ss = 0.0;
    for (double v : sorted) {
      const double d = v - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(s.count - 1));
  }
  return s;
}

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
