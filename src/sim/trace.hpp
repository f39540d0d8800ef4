#pragma once
// Simulation trace recording.
//
// Records named intervals (kernel executions, transfers, messages) on
// named tracks (one per subdevice / link) and exports them as a Chrome
// trace-event JSON file (load in chrome://tracing or Perfetto) — the
// timeline view a performance engineer would want from a node model.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace pvc::sim {

/// One completed interval on a track.
struct TraceEvent {
  std::string track;
  std::string name;
  Time start = 0.0;
  Time end = 0.0;
};

/// Collects intervals.  Costs nothing when disabled, because callers
/// decide whether to trace when they submit the work (rt::Queue::submit
/// for kernels, rt::NodeSim::traced as a transfer starts) and, with the
/// recorder off, build no track label and wrap no completion callback.
/// Work submitted while the recorder is off stays unrecorded even if it
/// is switched on before that work completes.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one interval.  No-op when disabled.
  void record(const std::string& track, const std::string& name, Time start,
              Time end);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() { events_.clear(); }

  /// Serializes to Chrome trace-event JSON ("traceEvents" array of "X"
  /// complete events; timestamps in microseconds).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes the JSON to a file; throws pvc::Error on I/O failure.
  void write_chrome_json(const std::string& path) const;

  /// Busy time aggregated per track (seconds).
  struct TrackSummary {
    std::string track;
    double busy_seconds = 0.0;
    std::size_t events = 0;
  };
  [[nodiscard]] std::vector<TrackSummary> summarize_tracks() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace pvc::sim
