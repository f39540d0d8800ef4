#pragma once
// Summary statistics and the best-of-N measurement policy.
//
// The paper runs each microbenchmark several times and reports the best
// number "to avoid run-to-run variations" (§IV-A).  `BestOf` encodes that
// policy for measurements that vary; the model's own drivers are
// deterministic and run each measurement once (src/micro/microbench.hpp).
// `Summary` provides the usual descriptive statistics for tests and for
// the google-benchmark harnesses.

#include <cstddef>
#include <span>
#include <vector>

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

/// Accumulates repeated measurements and reports the paper's
/// best-of-N statistic (minimum time == maximum rate).
class BestOf {
 public:
  explicit BestOf(std::size_t repeats = 5) : repeats_(repeats) {}

  void record(double value) { samples_.push_back(value); }

  [[nodiscard]] std::size_t repeats() const noexcept { return repeats_; }
  [[nodiscard]] bool done() const noexcept {
    return samples_.size() >= repeats_;
  }
  [[nodiscard]] std::span<const double> samples() const noexcept {
    return samples_;
  }

  /// Smallest recorded value (best time).  Requires at least one sample.
  [[nodiscard]] double best_min() const;
  /// Largest recorded value (best rate).  Requires at least one sample.
  [[nodiscard]] double best_max() const;
  [[nodiscard]] Summary summary() const { return summarize(samples_); }

 private:
  std::size_t repeats_;
  std::vector<double> samples_;
};

/// Relative error |a-b| / max(|a|,|b|); 0 when both are 0.
[[nodiscard]] double relative_error(double a, double b);

/// Linear interpolation of y(x) over sorted breakpoints.  Clamps outside
/// the table.  Used by calibration curves (e.g. scaling efficiency vs
/// active-stack count).
[[nodiscard]] double interpolate(std::span<const double> xs,
                                 std::span<const double> ys, double x);

}  // namespace pvc
