#pragma once
// Terminal line/bar plots for reproducing the paper's figures.
//
// Figure 1 (latency vs footprint) renders as a multi-series line plot with
// a log2 x-axis; Figures 2-4 (relative figure-of-merit bars with expected
// "black bar" markers) render as grouped horizontal bars.

#include <cstddef>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace pvc {

/// One series of (x, y) points.
struct PlotSeries {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Multi-series scatter/line plot on a character grid.
class LinePlot {
 public:
  LinePlot(std::string title, std::string x_label, std::string y_label)
      : title_(std::move(title)),
        x_label_(std::move(x_label)),
        y_label_(std::move(y_label)) {}

  /// Adds a series; throws if x/y sizes differ or are empty.
  void add_series(PlotSeries series);

  void set_log2_x(bool on) noexcept { log2_x_ = on; }
  void set_log10_y(bool on) noexcept { log10_y_ = on; }

  void render(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_, x_label_, y_label_;
  std::vector<PlotSeries> series_;
  bool log2_x_ = false;
  bool log10_y_ = false;
  std::size_t width_ = 96;
  std::size_t height_ = 24;
};

/// One bar in a grouped bar chart: a measured value plus an optional
/// expected marker (the paper's black bars).
struct Bar {
  std::string group;   ///< e.g. mini-app name
  std::string label;   ///< e.g. "Aurora one Stack"
  double value = 0.0;  ///< measured relative FOM
  std::optional<double> expected;  ///< expected relative performance
};

/// Horizontal bar chart with '#' bars and '|' expected markers.
class BarChart {
 public:
  explicit BarChart(std::string title) : title_(std::move(title)) {}

  void add_bar(Bar bar) { bars_.push_back(std::move(bar)); }

  void render(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::vector<Bar> bars_;
  std::size_t width_ = 60;
};

}  // namespace pvc
