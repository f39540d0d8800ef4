// Message-size sweeps over every transfer path (extension experiment):
// the latency-to-bandwidth transition the paper's single 500 MB message
// sits at the far end of, with per-path N_1/2 half-bandwidth points.
//
// Usage: sweep_msgsize [system=aurora] [csv=<path>] [threads=<n>]

#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "bench_entry.hpp"
#include "core/ascii_plot.hpp"
#include "core/table.hpp"
#include "micro/message_sweep.hpp"
#include "parallel_sweep.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"csv", "metrics", "system", "threads"});
  const auto node = pvcbench::system_from_config(config, "aurora");
  const auto sizes = micro::default_message_sizes();

  Table table("Message-size sweep summary — " + node.system_name);
  table.set_header({"Path", "1 KiB latency", "Asymptotic bandwidth",
                    "N_1/2 (half-bandwidth size)"});
  CsvWriter csv;
  csv.set_header({"path", "message_bytes", "seconds", "bandwidth_bps"});

  LinePlot plot("bandwidth vs message size — " + node.system_name,
                "message (bytes)", "bandwidth (B/s)");
  plot.set_log2_x(true);
  plot.set_log10_y(true);

  // One sweep task per transfer path; each path's curve lands in its
  // index-matched slot and the table/plot/CSV are emitted serially below
  // in path order, byte-identical for any threads= value.
  const auto paths = micro::available_paths(node);
  std::vector<micro::SweepResult> sweeps(paths.size());
  pvcbench::ParallelSweep runner(
      pvcbench::ParallelSweep::threads_from_config(config));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    runner.add([&sweeps, &paths, &node, &sizes, i] {
      sweeps[i] = micro::sweep_path(node, paths[i], sizes);
    });
  }
  runner.run();

  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& sweep = sweeps[i];
    table.add_row({micro::transfer_path_name(paths[i]),
                   format_duration(sweep.latency_s),
                   format_bandwidth(sweep.asymptotic_bandwidth_bps),
                   format_bytes_binary(sweep.half_bandwidth_bytes)});
    PlotSeries series;
    series.name = micro::transfer_path_name(paths[i]);
    for (const auto& point : sweep.points) {
      series.x.push_back(point.message_bytes);
      series.y.push_back(point.bandwidth_bps);
      csv.add_row({micro::transfer_path_name(paths[i]),
                   format_value(point.message_bytes, 8),
                   format_value(point.seconds, 8),
                   format_value(point.bandwidth_bps, 8)});
    }
    plot.add_series(std::move(series));
  }

  table.render(std::cout);
  std::printf("\n");
  plot.render(std::cout);
  std::printf(
      "\nObservation: the paper's 500 MB messages sit far right of every "
      "N_1/2 — its Table II/III numbers are asymptotic bandwidths, while "
      "small-halo codes live on the latency-dominated left.\n");
  pvcbench::maybe_write_csv(config, csv);
  pvcbench::maybe_write_metrics(config);
  return 0;
}

}  // namespace

PVCBENCH_MAIN(sweep_msgsize);
