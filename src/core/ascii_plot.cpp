#include "core/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/error.hpp"

namespace pvc {
namespace {

constexpr const char* kMarkers = "*o+x@%&=";

double maybe_log2(double v, bool log_on) {
  return log_on ? std::log2(v) : v;
}
double maybe_log10(double v, bool log_on) {
  return log_on ? std::log10(v) : v;
}

}  // namespace

void LinePlot::add_series(PlotSeries series) {
  ensure(!series.x.empty() && series.x.size() == series.y.size(),
         "LinePlot: series must be non-empty with equal x/y sizes");
  series_.push_back(std::move(series));
}

void LinePlot::render(std::ostream& out) const {
  ensure(!series_.empty(), "LinePlot: no series to render");

  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  for (const auto& s : series_) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double x = maybe_log2(s.x[i], log2_x_);
      const double y = maybe_log10(s.y[i], log10_y_);
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  }
  if (xmax <= xmin) {
    xmax = xmin + 1.0;
  }
  if (ymax <= ymin) {
    ymax = ymin + 1.0;
  }

  std::vector<std::string> grid(height_, std::string(width_, ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char mark = kMarkers[si % 8];
    const auto& s = series_[si];
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double x = maybe_log2(s.x[i], log2_x_);
      const double y = maybe_log10(s.y[i], log10_y_);
      const auto col = static_cast<std::size_t>(
          std::lround((x - xmin) / (xmax - xmin) *
                      static_cast<double>(width_ - 1)));
      const auto row = static_cast<std::size_t>(
          std::lround((y - ymin) / (ymax - ymin) *
                      static_cast<double>(height_ - 1)));
      grid[height_ - 1 - row][col] = mark;
    }
  }

  out << title_ << '\n';
  char buf[64];
  for (std::size_t r = 0; r < height_; ++r) {
    const double frac =
        static_cast<double>(height_ - 1 - r) / static_cast<double>(height_ - 1);
    double yv = ymin + frac * (ymax - ymin);
    if (log10_y_) {
      yv = std::pow(10.0, yv);
    }
    std::snprintf(buf, sizeof buf, "%10.3g |", yv);
    out << buf << grid[r] << '\n';
  }
  out << std::string(11, ' ') << '+' << std::string(width_, '-') << '\n';
  double x_lo = xmin, x_hi = xmax;
  if (log2_x_) {
    x_lo = std::pow(2.0, xmin);
    x_hi = std::pow(2.0, xmax);
  }
  std::snprintf(buf, sizeof buf, "%12.4g", x_lo);
  out << buf << std::string(width_ > 24 ? width_ - 24 : 0, ' ');
  std::snprintf(buf, sizeof buf, "%12.4g", x_hi);
  out << buf << '\n';
  out << "  x: " << x_label_ << (log2_x_ ? " (log2 scale)" : "")
      << "    y: " << y_label_ << (log10_y_ ? " (log10 scale)" : "") << '\n';
  out << "  series:";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    out << "  [" << kMarkers[si % 8] << "] " << series_[si].name;
  }
  out << '\n';
}

std::string LinePlot::to_string() const {
  std::ostringstream oss;
  render(oss);
  return oss.str();
}

void BarChart::render(std::ostream& out) const {
  ensure(!bars_.empty(), "BarChart: no bars to render");

  double vmax = 0.0;
  std::size_t label_w = 0;
  for (const auto& b : bars_) {
    vmax = std::max(vmax, b.value);
    if (b.expected) {
      vmax = std::max(vmax, *b.expected);
    }
    label_w = std::max(label_w, b.group.size() + b.label.size() + 3);
  }
  if (vmax <= 0.0) {
    vmax = 1.0;
  }

  out << title_ << '\n';
  std::string last_group;
  for (const auto& b : bars_) {
    if (b.group != last_group) {
      out << b.group << ":\n";
      last_group = b.group;
    }
    const auto len = static_cast<std::size_t>(
        std::lround(b.value / vmax * static_cast<double>(width_)));
    std::string bar(len, '#');
    bar.resize(width_ + 1, ' ');
    if (b.expected) {
      const auto pos = static_cast<std::size_t>(
          std::lround(*b.expected / vmax * static_cast<double>(width_)));
      bar[std::min(pos, width_)] = '|';
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %6.2f", b.value);
    out << "  " << b.label << std::string(label_w > b.label.size()
                                              ? label_w - b.label.size()
                                              : 1,
                                          ' ')
        << '[' << bar << ']' << buf;
    if (b.expected) {
      std::snprintf(buf, sizeof buf, "  (expected %.2f)", *b.expected);
      out << buf;
    }
    out << '\n';
  }
  out << "  '#' measured relative FOM, '|' expected (paper's black bar)\n";
}

std::string BarChart::to_string() const {
  std::ostringstream oss;
  render(oss);
  return oss.str();
}

}  // namespace pvc
