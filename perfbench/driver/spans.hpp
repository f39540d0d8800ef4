#pragma once
// In-memory span recorder for the traced run.  A span is one timed call
// into a layer (name, start, end, parent span, op id, thread lane); the
// recorder keeps every span in memory and writes them once, at the end,
// as Chrome/Perfetto trace JSON plus a per-layer totals table.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  int op = -1;               ///< index into the workload's ops; -1 = none
  int lane = 0;              ///< thread lane in the trace viewer
  std::string name;          ///< layer-qualified, e.g. "kernels.chase"
  Clock::time_point start;
  Clock::time_point end;

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Fresh span id (thread-safe).
  [[nodiscard]] std::uint64_t next_id();

  /// Stores a finished span (thread-safe).
  void add(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Per-name totals and counts, sorted by name.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>> totals()
      const;

  /// Chrome/Perfetto "traceEvents" JSON (complete "X" events, microsecond
  /// timestamps from the recorder's creation).
  void write_chrome_json(const std::string& path) const;

  /// The per-layer totals as an aligned text table.
  [[nodiscard]] std::string totals_table() const;

 private:
  Clock::time_point epoch_;
  std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: times its scope and hands the span to the recorder.  A
/// null recorder makes it a no-op, so untraced code paths share the
/// probe code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent,
             int op, int lane);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

}  // namespace perfbench
