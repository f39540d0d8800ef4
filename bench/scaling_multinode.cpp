// Multi-node scaling bench (extension experiment): Aurora-style
// strong/weak-scaling, halo-exchange, and collective-switchover curves
// from one node to thousands of ranks over the Slingshot-like fabric
// model (src/sim/fabric.hpp, docs/SCALING.md).
//
// Small rank counts run through the discrete-event ClusterComm (every
// message a flow through NIC injection queues and dragonfly links);
// large counts use the analytic alpha-beta model the DES validates at
// the overlap points.  The `mode` column says which produced each row.
//
// Usage: scaling_multinode [csv=<path>] [metrics=<path>] [threads=<n>]
//                          [system=<name>] [sim_ranks=<cap>]
//                          [chaos=<spec>]
//
// sim_ranks= caps the rank counts priced by the DES (default 768, 64
// Aurora nodes); 0 prices every point with the model.  threads= only
// spreads the per-point DES runs over a sweep pool: output is
// byte-identical at every value (tests/determinism_check.cmake).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "bench_entry.hpp"
#include "comm/cluster.hpp"
#include "core/table.hpp"
#include "fault/injector.hpp"
#include "miniapps/cloverleaf.hpp"
#include "parallel_sweep.hpp"
#include "sim/fabric.hpp"

namespace {

// Halo payload per neighbour (one 2-D face of a slab decomposition).
constexpr double kHaloBytes = 256.0 * 1024.0;
// Residual allreduce every step (one FP64 per field pair).
constexpr double kResidualBytes = 8.0;
// Rank-count multipliers over one node; with Aurora's 12 ranks/node the
// curve runs 12 → 6144.
constexpr int kNodeMultipliers[] = {1, 4, 16, 64, 256, 512};

/// One halo-curve point, computed by a ParallelSweep task.
struct HaloPoint {
  int ranks = 0;
  int nodes = 0;
  double sim_s = -1.0;  ///< discrete-event result; < 0 when model-only
  double model_s = 0.0;
};

HaloPoint halo_point(const pvc::arch::NodeSpec& node,
                     const pvc::sim::FabricSpec& fabric,
                     const pvc::fault::FaultPlan& plan, int ranks,
                     long sim_cap) {
  using namespace pvc;
  HaloPoint pt;
  pt.ranks = ranks;
  pt.nodes = comm::nodes_for_ranks(node, ranks);
  const sim::ClusterShape shape{ranks,
                                std::min(ranks, node.total_subdevices())};
  pt.model_s = sim::halo_model_seconds(fabric, shape, kHaloBytes);
  if (ranks <= sim_cap) {
    comm::ClusterComm cluster(node, fabric, ranks);
    fault::Injector injector(plan);
    injector.arm(cluster);
    pt.sim_s = comm::cluster_halo_exchange(cluster, kHaloBytes);
  }
  return pt;
}

/// Single-step time of the CloverLeaf-like scaled workload: streaming
/// compute over this rank's cells, the two-neighbour halo, and the
/// residual allreduce under the switchover-chosen algorithm.
double step_seconds(const pvc::arch::NodeSpec& node,
                    const pvc::sim::FabricSpec& fabric, double cells_per_rank,
                    int ranks) {
  using namespace pvc;
  const sim::ClusterShape shape{ranks,
                                std::min(ranks, node.total_subdevices())};
  const double compute = cells_per_rank * miniapps::kBytesPerCellStep /
                         arch::subdevice_stream_bandwidth(node);
  const double halo = sim::halo_model_seconds(fabric, shape, kHaloBytes);
  const sim::CollectiveAlgo algo =
      sim::choose_collective_algo(fabric, shape, kResidualBytes);
  const double residual =
      sim::allreduce_model_seconds(fabric, shape, kResidualBytes, algo);
  return compute + halo + residual;
}

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"chaos", "csv", "metrics", "sim_ranks", "system", "threads"});
  const arch::NodeSpec node = pvcbench::system_from_config(config, "Aurora");
  const sim::FabricSpec fabric = sim::FabricSpec::for_node(node);
  const long sim_cap = config.get_int("sim_ranks", 768);
  ensure(sim_cap >= 0, ErrorCode::InvalidArgument,
         "sim_ranks must be non-negative (got " + std::to_string(sim_cap) +
             "; 0 prices every point with the model)");
  const int base = node.total_subdevices();
  std::vector<int> rank_counts;
  for (const int m : kNodeMultipliers) {
    rank_counts.push_back(m * base);
  }
  fault::FaultPlan plan;
  if (const auto chaos = config.get("chaos")) {
    plan = fault::FaultPlan::parse(*chaos);
    // The plan is armed on every DES point; the largest one bounds it.
    fault::ClusterExtent largest;
    for (const int ranks : rank_counts) {
      if (ranks <= sim_cap) {
        largest = {comm::nodes_for_ranks(node, ranks), fabric.nic.per_node,
                   ranks};
      }
    }
    fault::check_cluster_plan(plan, largest, /*reads_checkpoint=*/false);
    std::printf("%s", plan.summary().c_str());
  }

  CsvWriter csv;
  csv.set_header({"section", "system", "ranks", "nodes", "mode", "bytes",
                  "algorithm", "seconds", "bandwidth_bps", "efficiency"});

  std::printf("Fabric: %s — %d NIC/node x %s injection, %.0f Mmsg/s, "
              "%d-node groups\n\n",
              fabric.name.c_str(), fabric.nic.per_node,
              format_bandwidth(fabric.nic.injection_bps).c_str(),
              fabric.nic.message_rate_per_s / 1e6, fabric.topo.nodes_per_group);

  // --- halo-exchange curve (DES where affordable, model beyond) ------------
  // One task per rank count; results land in index-matched slots and
  // render serially below, so output is byte-identical for any
  // threads= value (tests/determinism_check.cmake).
  std::vector<HaloPoint> halo(rank_counts.size());
  pvcbench::ParallelSweep sweep(
      pvcbench::ParallelSweep::threads_from_config(config));
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    sweep.add([&, i] {
      halo[i] = halo_point(node, fabric, plan, rank_counts[i], sim_cap);
    });
  }
  sweep.run();

  Table halo_table("Halo exchange (" + format_bytes_binary(kHaloBytes) +
                   " per neighbour) — " + node.system_name);
  halo_table.set_header(
      {"Ranks", "Nodes", "Mode", "Sim", "Model", "BW/rank"});
  for (const HaloPoint& pt : halo) {
    const bool sim_ran = pt.sim_s >= 0.0;
    const double seconds = sim_ran ? pt.sim_s : pt.model_s;
    const double bw = 2.0 * kHaloBytes / seconds;
    halo_table.add_row({std::to_string(pt.ranks), std::to_string(pt.nodes),
                        sim_ran ? "sim" : "model",
                        sim_ran ? format_value(pt.sim_s * 1e6, 4) + " us" : "-",
                        format_value(pt.model_s * 1e6, 4) + " us",
                        format_bandwidth(bw)});
    csv.add_row({"halo", node.system_name, std::to_string(pt.ranks),
                 std::to_string(pt.nodes), sim_ran ? "sim" : "model",
                 format_value(kHaloBytes, 0), "ring",
                 format_value(seconds, 9), format_value(bw, 1), "-"});
  }
  halo_table.render(std::cout);
  std::printf("\n");

  // --- allreduce algorithm switchover --------------------------------------
  const double sizes[] = {8.0,          1024.0,        64.0 * 1024.0,
                          1024.0 * 1024.0, 16.0 * 1024.0 * 1024.0};
  const int switch_ranks[] = {16, 64, 256, 1024, 4096};
  Table sw_table("Allreduce switchover (algorithm @ modelled time) — " +
                 node.system_name);
  sw_table.set_header({"Vector", "p=16", "p=64", "p=256", "p=1024", "p=4096"});
  for (const double bytes : sizes) {
    std::vector<std::string> row{format_bytes_binary(bytes)};
    for (const int p : switch_ranks) {
      const sim::ClusterShape shape{p, std::min(p, base)};
      const sim::CollectiveAlgo algo =
          sim::choose_collective_algo(fabric, shape, bytes);
      const double t = sim::allreduce_model_seconds(fabric, shape, bytes, algo);
      row.push_back(std::string(sim::collective_algo_name(algo)) + " @ " +
                    format_value(t * 1e6, 3) + " us");
      csv.add_row({"allreduce", node.system_name, std::to_string(p),
                   std::to_string(shape.nodes()), "model",
                   format_value(bytes, 0), sim::collective_algo_name(algo),
                   format_value(t, 9), "-", "-"});
    }
    sw_table.add_row(row);
  }
  sw_table.render(std::cout);
  std::printf("\n");

  // --- strong and weak scaling ---------------------------------------------
  const double total_cells = miniapps::kPaperCells * base;
  const double strong_base = step_seconds(node, fabric, total_cells / base, base);
  const double weak_base = step_seconds(node, fabric, miniapps::kPaperCells, base);
  Table scale_table("Strong (fixed " + format_value(total_cells / 1e6, 0) +
                    " Mcells) and weak (" +
                    format_value(miniapps::kPaperCells / 1e6, 0) +
                    " Mcells/rank) scaling — " + node.system_name);
  scale_table.set_header({"Ranks", "Nodes", "Strong step", "Speedup", "Eff",
                          "Weak step", "Eff"});
  for (const int ranks : rank_counts) {
    const int nodes = comm::nodes_for_ranks(node, ranks);
    const double strong_t =
        step_seconds(node, fabric, total_cells / ranks, ranks);
    const double speedup = strong_base / strong_t;
    const double strong_eff = speedup / (static_cast<double>(ranks) / base);
    const double weak_t = step_seconds(node, fabric, miniapps::kPaperCells, ranks);
    const double weak_eff = weak_base / weak_t;
    scale_table.add_row(
        {std::to_string(ranks), std::to_string(nodes),
         format_value(strong_t * 1e3, 4) + " ms", format_value(speedup, 3),
         format_value(strong_eff, 3), format_value(weak_t * 1e3, 4) + " ms",
         format_value(weak_eff, 3)});
    csv.add_row({"strong", node.system_name, std::to_string(ranks),
                 std::to_string(nodes), "model", "-", "-",
                 format_value(strong_t, 9), "-", format_value(strong_eff, 4)});
    csv.add_row({"weak", node.system_name, std::to_string(ranks),
                 std::to_string(nodes), "model", "-", "-",
                 format_value(weak_t, 9), "-", format_value(weak_eff, 4)});
  }
  scale_table.render(std::cout);
  std::printf("\n");

  // --- per-NIC message-rate ceiling ----------------------------------------
  Table rate_table("Per-rank message rate vs message size — " +
                   node.system_name);
  rate_table.set_header({"Message", "1 rank/node", "Full node (" +
                                                       std::to_string(base) +
                                                       " ranks)"});
  for (const double bytes : {8.0, 512.0, 4096.0, 65536.0}) {
    const double solo = sim::message_rate_model_per_rank(fabric, 1, bytes);
    const double full = sim::message_rate_model_per_rank(fabric, base, bytes);
    rate_table.add_row({format_bytes_binary(bytes),
                        format_value(solo / 1e6, 3) + " Mmsg/s",
                        format_value(full / 1e6, 3) + " Mmsg/s"});
    csv.add_row({"msgrate", node.system_name, std::to_string(base), "1",
                 "model", format_value(bytes, 0), "-",
                 format_value(1.0 / full, 12), format_value(full * bytes, 1),
                 "-"});
  }
  rate_table.render(std::cout);

  std::printf(
      "\nSwitchover note: small vectors ride latency-optimal algorithms "
      "(recursive doubling on power-of-two rank counts, reduce+broadcast "
      "otherwise); the bandwidth-optimal ring takes over once 2(p-1) "
      "pipelined blocks beat log2(p) full-vector rounds.  The full-node "
      "message-rate column shows the per-NIC injection ceiling shared by "
      "%d ranks per NIC.\n",
      (base + fabric.nic.per_node - 1) / fabric.nic.per_node);

  pvcbench::maybe_write_csv(config, csv);
  pvcbench::maybe_write_metrics(config);
  return 0;
}

}  // namespace

PVCBENCH_MAIN(scaling_multinode);
