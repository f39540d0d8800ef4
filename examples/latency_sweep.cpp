// Latency sweep: run the lats pointer-chase against any system's cache
// hierarchy over a configurable footprint range — the tool behind
// Figure 1, exposed for exploration (e.g. how would a PVC with a 1 MiB
// L1 look?).
//
//   ./latency_sweep [system=aurora] [min_kib=16] [max_mib=1024]
//                   [coalesced=false] [l1_kib=<override>]
//
// The sweep doubles the footprint from min_kib up to max_mib.  Each
// size option must be at least 1 and at most one subdevice's HBM, and
// the minimum may not exceed the maximum.

#include <cstdio>
#include <iostream>
#include <string>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "core/ascii_plot.hpp"
#include "core/config.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "micro/microbench.hpp"

namespace {

/// `key=` as a size in units of `unit_bytes`: at least 1 and at most
/// the HBM of one subdevice of `node`, or an InvalidArgument naming the
/// option.
long size_option(const pvc::Config& config, const pvc::arch::NodeSpec& node,
                 const std::string& key, long fallback, double unit_bytes) {
  const long value = config.get_int(key, fallback);
  const double hbm = node.card.subdevice.hbm.capacity_bytes;
  std::string problem;
  if (value < 1) {
    problem = "must be at least 1";
  } else if (static_cast<double>(value) * unit_bytes > hbm) {
    problem = "exceeds the " + pvc::format_bytes_si(hbm) + " HBM of one " +
              node.system_name + " subdevice";
  }
  if (!problem.empty()) {
    pvc::reject_option(key, std::to_string(value), problem);
  }
  return value;
}

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(
      config, {"system", "min_kib", "max_mib", "coalesced", "l1_kib"});
  auto node = pvcbench::system_from_config(config, "aurora");
  const long min_kib = size_option(config, node, "min_kib", 16, KiB);
  const long max_mib = size_option(config, node, "max_mib", 1024, MiB);
  const double min_bytes = static_cast<double>(min_kib) * KiB;
  const double max_bytes = static_cast<double>(max_mib) * MiB;
  if (min_bytes > max_bytes) {
    raise(ErrorCode::InvalidArgument,
          "Config: the sweep is empty, min_kib exceeds max_mib: min_kib=" +
              std::to_string(min_kib) +
              " max_mib=" + std::to_string(max_mib));
  }
  const bool coalesced = config.get_bool("coalesced", false);

  // Optional what-if: resize the L1.
  if (config.has("l1_kib")) {
    node.card.subdevice.caches[0].size_bytes =
        static_cast<std::uint64_t>(size_option(config, node, "l1_kib", 512,
                                               KiB)) *
        1024;
    std::printf("What-if: L1 resized to %s\n",
                format_bytes_binary(static_cast<double>(
                                        node.card.subdevice.caches[0]
                                            .size_bytes))
                    .c_str());
  }

  std::vector<double> sweep;
  for (double f = min_bytes; f <= max_bytes; f *= 2.0) {
    sweep.push_back(f);
  }
  const auto curve = micro::measure_latency_curve(node, coalesced, sweep);

  std::printf("%s pointer-chase latency (%s mode)\n",
              node.system_name.c_str(),
              coalesced ? "coalesced 16-wide" : "single-lane");
  std::printf("%16s %12s\n", "footprint", "cycles");
  for (const auto& point : curve) {
    std::printf("%16s %12.1f\n",
                format_bytes_binary(point.footprint_bytes).c_str(),
                point.latency_cycles);
  }

  LinePlot plot("latency vs footprint", "bytes", "cycles");
  plot.set_log2_x(true);
  plot.set_log10_y(true);
  PlotSeries series;
  series.name = node.system_name;
  for (const auto& point : curve) {
    series.x.push_back(point.footprint_bytes);
    series.y.push_back(point.latency_cycles);
  }
  plot.add_series(std::move(series));
  plot.render(std::cout);

  for (const auto& level : node.card.subdevice.caches) {
    std::printf("  %s: %s, %.0f cycles\n", level.name.c_str(),
                format_bytes_binary(static_cast<double>(level.size_bytes))
                    .c_str(),
                level.latency_cycles);
  }
  std::printf("  HBM: %.0f cycles\n",
              node.card.subdevice.hbm.latency_cycles);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return pvcbench::guarded_main("latency_sweep", argc, argv, run);
}
