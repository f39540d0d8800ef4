// Trace timeline: runs a weak-scaled CloverLeaf-like phase across every
// stack with tracing enabled, prints per-track busy summaries and the
// obs metrics the run accumulated, and exports a Chrome trace-event
// JSON you can open in chrome://tracing or Perfetto to see the kernels
// and PCIe transfers overlap.
//
//   ./trace_timeline [system=aurora] [out=trace.json] [steps=4]
//                    [metrics=metrics.csv]

#include <cstdio>
#include <string>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/units.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"system", "out", "steps", "metrics"});
  const auto node = pvcbench::system_from_config(config, "aurora");
  const std::string out_path = config.get_string("out", "trace.json");
  const long steps = config.get_int("steps", 4);
  if (steps < 1) {
    reject_option("steps", std::to_string(steps), "must be at least 1");
  }

  rt::NodeSim sim(node);
  sim.trace().set_enabled(true);
  sim.set_activity(arch::activity(node, arch::Scope::FullNode));

  std::vector<rt::Queue> queues;
  for (int d = 0; d < sim.device_count(); ++d) {
    queues.emplace_back(sim, d);
  }

  // Per step: upload a halo, run a bandwidth-bound hydro kernel, pull a
  // small tally back — the shape of one weak-scaled CloverLeaf step.
  rt::KernelDesc hydro;
  hydro.name = "hydro-step";
  hydro.kind = arch::WorkloadKind::Stream;
  hydro.bytes = 8.0 * GB;
  for (long s = 0; s < steps; ++s) {
    for (auto& q : queues) {
      q.memcpy_h2d(32.0 * MB);
      q.submit(hydro);
      q.memcpy_d2h(4.0 * MB);
    }
  }
  for (auto& q : queues) {
    q.wait();
  }

  const double makespan = sim.engine().now();
  std::printf("%s: %d devices x %ld steps finished at %s\n",
              node.system_name.c_str(), sim.device_count(), steps,
              format_duration(makespan).c_str());

  std::printf("\nPer-track busy time (utilization of the makespan):\n");
  for (const auto& track : sim.trace().summarize_tracks()) {
    std::printf("  %-18s %10s busy (%5.1f%%), %zu events\n",
                track.track.c_str(),
                format_duration(track.busy_seconds).c_str(),
                100.0 * track.busy_seconds / makespan, track.events);
  }

  const auto snapshot = obs::Registry::global().snapshot();
  std::printf("\n%s\n",
              obs::to_table(snapshot, /*include_zero=*/false,
                            "Run metrics (docs/OBSERVABILITY.md)")
                  .to_string()
                  .c_str());
  if (const auto metrics_path = config.get("metrics")) {
    obs::write_file(snapshot, *metrics_path);
    std::printf("Metrics written to %s\n", metrics_path->c_str());
  }

  sim.trace().write_chrome_json(out_path);
  std::printf("\nChrome trace written to %s (open in chrome://tracing)\n",
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return pvcbench::guarded_main("trace_timeline", argc, argv, run);
}
