#pragma once
// Per-layer probes for the traced run.  After the traced laps, each op's
// probes call the public functions of the layers its bench uses, on the
// inputs the bench uses (its constants are mirrored here), and wrap each
// call in a span whose parent is the op's "bench.entry" span.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Counts the probes gather besides their spans.
struct ProbeStats {
  std::uint64_t chase_steps = 0;    ///< steps walked by kernels::chase_simulated
  std::uint64_t engine_events = 0;  ///< events executed by probe-owned engines
  double engine_seconds = 0.0;      ///< span time of the calls driving them
  /// Per span name: seconds of identical work a probe ran once where the
  /// bench runs it several times, counted for the repeats.
  std::map<std::string, double> reused_seconds;
  std::vector<std::string> mismatches;  ///< probe results the op's CSV lacks

  void merge(const ProbeStats& other);
};

/// Where a running probe records: its op, parent span and trace lane.
struct ProbeScope {
  SpanRecorder* recorder = nullptr;
  std::uint64_t parent = 0;
  int op = -1;
  int lane = 1;
  ProbeStats stats;

  [[nodiscard]] ScopedSpan span(const char* name, std::uint64_t parent_id) {
    return ScopedSpan(recorder, name, parent_id, op, lane);
  }
  [[nodiscard]] ScopedSpan span(const char* name) { return span(name, parent); }
};

/// One independently schedulable probe of one op.
struct ProbeTask {
  int op = -1;
  std::function<void(ProbeScope&)> run;
};

/// Root span of the replays that split chase time into its phases.  They
/// re-execute work the chase probes already timed, so their spans are
/// left out of the op's probe total.
inline constexpr const char* kChaseSplitSpan = "kernels.chase_split";

/// The probes of `op`; `csv` is the op's output (probes that reproduce a
/// CSV value check it there).
[[nodiscard]] std::vector<ProbeTask> probe_tasks(const Op& op, int op_index,
                                                 const std::string& csv);

}  // namespace perfbench
