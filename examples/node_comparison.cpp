// Node comparison: for a workload with a known bound (the paper's
// Table V taxonomy), rank the four systems and show the microbenchmark
// that explains the ranking — the decision the paper equips application
// developers to make.
//
//   ./node_comparison [bound=fp32|fp64|bandwidth|dgemm|latency]

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "report/table6.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"bound"});
  const std::string bound = config.get_string("bound", "bandwidth");

  struct Entry {
    std::string system;
    double metric;
    std::string fom_note;
  };
  std::vector<Entry> entries;

  for (const auto& node : arch::all_systems()) {
    double metric = 0.0;
    if (bound == "fp32") {
      metric = arch::fma_peak(node, arch::Precision::FP32,
                              arch::Scope::FullNode);
    } else if (bound == "fp64") {
      metric = arch::fma_peak(node, arch::Precision::FP64,
                              arch::Scope::FullNode);
    } else if (bound == "bandwidth") {
      metric = arch::stream_bandwidth(node, arch::Scope::FullNode);
    } else if (bound == "dgemm") {
      metric = arch::gemm_rate(node, arch::Precision::FP64,
                               arch::Scope::FullNode);
    } else if (bound == "latency") {
      metric = 1.0e12 / node.card.subdevice.hbm.latency_cycles *
               node.total_subdevices();
    } else {
      reject_option("bound", bound,
                    "is not a bound (fp32, fp64, bandwidth, dgemm, latency)");
    }

    const auto foms = report::compute_table6(node);
    std::string note;
    if (bound == "bandwidth" && foms.cloverleaf.node) {
      note = "CloverLeaf node FOM " + format_value(*foms.cloverleaf.node, 4);
    } else if (bound == "fp32" && foms.minibude.one_stack) {
      note = "miniBUDE " + format_value(*foms.minibude.one_stack, 4) +
             " GInter/s per subdevice";
    } else if (bound == "dgemm" && foms.minigamess.node) {
      note = "mini-GAMESS node FOM " + format_value(*foms.minigamess.node, 4);
    } else if (bound == "latency" && foms.openmc.node) {
      note = "OpenMC node FOM " + format_value(*foms.openmc.node, 4);
    }
    entries.push_back({node.system_name, metric, note});
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.metric > b.metric; });

  Table table("Node ranking for a " + bound + "-bound workload (full node)");
  table.set_header({"Rank", "System", "Deciding microbenchmark",
                    "Corroborating app FOM"});
  int rank = 1;
  for (const auto& e : entries) {
    const std::string value = (bound == "bandwidth")
                                  ? format_bandwidth(e.metric)
                                  : (bound == "latency")
                                        ? format_value(e.metric / 1e9, 4) +
                                              " (1/cycles x devices)"
                                        : format_flops(e.metric);
    table.add_row({std::to_string(rank++), e.system, value,
                   e.fom_note.empty() ? "-" : e.fom_note});
  }
  table.render(std::cout);
  std::printf(
      "\nCaveat from the paper (§V-B4): single-feature microbenchmarks miss "
      "whole-node bottlenecks — miniQMC is CPU-congestion bound and ranks "
      "differently than any of these metrics predicts.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return pvcbench::guarded_main("node_comparison", argc, argv, run);
}
