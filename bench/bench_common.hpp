#pragma once
// Shared glue for the table/figure bench binaries: formatting of
// model-vs-paper cells, CSV dumping controlled by `csv=<path>`, and
// metrics dumping controlled by `metrics=<path>` (docs/OBSERVABILITY.md).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <optional>
#include <string>

#include "arch/systems.hpp"
#include "core/config.hpp"
#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"

namespace pvcbench {

/// Top-level guard every bench main() runs under: a pvc::Error escaping
/// the run (bad config=, fault injection, model contract violation) is
/// printed to stderr and turned into a non-zero exit instead of an
/// unhandled-exception abort.
inline int guarded_main(const char* name, int argc, char** argv,
                        int (*run)(int argc, char** argv)) noexcept {
  try {
    return run(argc, argv);
  } catch (const pvc::Error& e) {
    std::fprintf(stderr, "%s: error: %s\n", name, e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: unexpected exception: %s\n", name, e.what());
  } catch (...) {
    std::fprintf(stderr, "%s: unknown fatal exception\n", name);
  }
  return 1;
}

/// Rejects what the bench would otherwise ignore or fail on only after
/// its run, each an InvalidArgument naming it: a positional token (no
/// `=`, like `csv` for `csv=<path>`), a `key=value` option whose key is
/// not in `accepted` (a typo like `simranks=512`), and an empty `csv=`
/// or `metrics=` path.  Call right after Config::from_args with the
/// bench's full accepted-key list — test_docs.cpp cross-checks these
/// lists against the keys each bench actually reads and the README
/// option table.
inline void require_known_keys(const pvc::Config& config,
                               std::initializer_list<const char*> accepted) {
  const auto accepted_list = [&accepted] {
    std::string list;
    for (const char* a : accepted) {
      list += list.empty() ? a : std::string(", ") + a;
    }
    return list;
  };
  for (const std::string& token : config.positional()) {
    pvc::raise(pvc::ErrorCode::InvalidArgument,
               "unexpected argument '" + token +
                   "': options are key=value (accepted keys: " +
                   accepted_list() + ")");
  }
  for (const std::string& key : config.keys()) {
    const bool known =
        std::any_of(accepted.begin(), accepted.end(),
                    [&key](const char* a) { return key == a; });
    if (!known) {
      pvc::raise(pvc::ErrorCode::InvalidArgument,
                 "unknown option '" + key + "' (accepted: " +
                     accepted_list() + ")");
    }
  }
  for (const std::string key : {"csv", "metrics"}) {
    const auto path = config.get(key);
    if (path && path->empty()) {
      pvc::raise(pvc::ErrorCode::InvalidArgument,
                 "Config: value for '" + key + "' is an empty path: " + key +
                     "=");
    }
  }
}

/// The node that `system=` names, or `fallback` when it is absent; an
/// unknown name is an InvalidArgument quoting the option.
inline pvc::arch::NodeSpec system_from_config(const pvc::Config& config,
                                              const std::string& fallback) {
  const std::string name = config.get("system").value_or(fallback);
  try {
    return pvc::arch::system_by_name(name);
  } catch (const pvc::Error&) {
    pvc::raise(pvc::ErrorCode::InvalidArgument,
               "Config: value for 'system' is not a known system (aurora, "
               "dawn, jlse-h100, jlse-mi250, frontier): system=" +
                   name);
  }
}

/// "17.2 TFlop/s (paper 17, +1.2%)" — the standard cell format.
inline std::string cell_vs_paper(double model, double paper,
                                 const std::string& unit_suffix = "Flop/s") {
  const double delta = (model - paper) / paper * 100.0;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s (paper %s, %+.1f%%)",
                pvc::format_flops(model, unit_suffix).c_str(),
                pvc::format_flops(paper, unit_suffix).c_str(), delta);
  return buf;
}

inline std::string cell_bw_vs_paper(double model, double paper) {
  const double delta = (model - paper) / paper * 100.0;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s (paper %s, %+.1f%%)",
                pvc::format_bandwidth(model).c_str(),
                pvc::format_bandwidth(paper).c_str(), delta);
  return buf;
}

inline std::string cell_fom_vs_paper(const std::optional<double>& model,
                                     const std::optional<double>& paper) {
  if (!model && !paper) {
    return "-";
  }
  if (model && !paper) {
    return pvc::format_value(*model, 4) + " (paper -)";
  }
  if (!model) {
    return "- (paper " + pvc::format_value(*paper, 4) + ")";
  }
  const double delta = (*model - *paper) / *paper * 100.0;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s (paper %s, %+.1f%%)",
                pvc::format_value(*model, 4).c_str(),
                pvc::format_value(*paper, 4).c_str(), delta);
  return buf;
}

/// Writes the CSV when the binary was invoked with `csv=<path>`.
inline void maybe_write_csv(const pvc::Config& config,
                            const pvc::CsvWriter& csv) {
  if (const auto path = config.get("csv")) {
    csv.write_file(*path);
    std::printf("\nCSV written to %s\n", path->c_str());
  }
}

/// Dumps the active obs registry when the binary was invoked with
/// `metrics=<path>` (".json" suffix selects JSON, anything else CSV).
/// Call at the end of main so the snapshot covers the whole run.  The
/// active registry is the process-wide one in a standalone binary and
/// the caller's obs::ScopedRegistry when the bench runs in-process
/// through run_bench_entry.
inline void maybe_write_metrics(const pvc::Config& config) {
  if (const auto path = config.get("metrics")) {
    const auto snapshot = pvc::obs::Registry::active().snapshot();
    pvc::obs::write_file(snapshot, *path);
    std::printf("\nMetrics written to %s (%zu metrics; see "
                "docs/OBSERVABILITY.md)\n",
                path->c_str(), snapshot.samples.size());
  }
}

}  // namespace pvcbench
