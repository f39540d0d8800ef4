// Resilience sweep (extension experiment): prices cluster-scale failure
// and recovery on the Aurora-style fabric model (docs/ROBUSTNESS.md,
// docs/SCALING.md).
//
// Three sections, each cross-validating a model against the
// discrete-event engine:
//
//  * checkpoint write cost vs rank count — ClusterComm::checkpoint_write
//    drains bytes/rank through the NIC links where affordable, the
//    closed-form checkpoint_write_model_s beyond;
//  * Daly checkpoint/restart sweep — MTBF x interval grid comparing
//    Daly's analytic time-to-solution against the seeded Monte-Carlo
//    C/R engine, with wasted-work and energy columns; the two minima
//    must land within one grid step of each other;
//  * fault-tolerant recovery at 64 nodes — a nodedown mid-collective,
//    recovered by both policies (shrink-and-continue and spare-node
//    failover), halo exchange and allreduce.
//
// Usage: resilience_sweep [csv=<path>] [metrics=<path>] [threads=<n>]
//                         [system=<name>] [sim_ranks=<cap>]
//                         [chaos=<spec>] [work=<s>] [trials=<n>]
//
// sim_ranks= caps the rank counts whose checkpoint write the DES prices
// (default 768); 0 prices every point with the model.  The recovery
// section always runs on the DES.  work= must be finite and positive and
// trials= in 1..INT_MAX; then every Daly cell is checked against the
// Monte Carlo's bounds (fault::check_restart_cell: 2^20 segments per
// trial, 2^32 segments in all, 1e9 expected failures), naming the
// options and the chaos ckpt clause that set it.  All of this happens
// before any section runs or prints.  threads= only spreads the
// sections' independent runs over a sweep pool: output is
// byte-identical at every value (tests/determinism_check.cmake).

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "bench_entry.hpp"
#include "comm/cluster.hpp"
#include "core/table.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "parallel_sweep.hpp"
#include "sim/fabric.hpp"

namespace {

// Checkpoint payload per rank: a quarter of one PVC stack's 64 GB HBM
// half (an application-level field-set checkpoint, not a core dump).
constexpr double kCkptBytes = 16.0 * 1024.0 * 1024.0 * 1024.0;
// Halo payload per neighbour and residual allreduce, matching
// scaling_multinode so the recovery rows are comparable.
constexpr double kHaloBytes = 256.0 * 1024.0;
constexpr double kResidualBytes = 8.0;
// Rank-count multipliers over one node; 12 -> 6144 on Aurora.
constexpr int kNodeMultipliers[] = {1, 4, 16, 64, 256, 512};
// The recovery section runs at this many nodes (768 ranks on Aurora).
constexpr int kJobNodes = 64;
// Default fault script: one node dies 2 us into the collective, while
// its flows are still in flight.
constexpr const char* kDefaultChaos = "seed:7;nodedown:node=3,at=2us";
// Interval grid around the Daly optimum, one octave each way.
constexpr double kIntervalFactors[] = {0.25, 0.5, 1.0, 2.0, 4.0};
// Cluster-level MTBF points (seconds).
constexpr double kMtbfGrid[] = {250.0, 1000.0, 4000.0};

/// One checkpoint-cost point, computed by a ParallelSweep task.
struct CkptPoint {
  int ranks = 0;
  int nodes = 0;
  double sim_s = -1.0;  ///< discrete-event result; < 0 when model-only
  double model_s = 0.0;
};

CkptPoint ckpt_point(const pvc::arch::NodeSpec& node,
                     const pvc::sim::FabricSpec& fabric, int ranks,
                     long sim_cap, double bytes) {
  using namespace pvc;
  CkptPoint pt;
  pt.ranks = ranks;
  pt.nodes = comm::nodes_for_ranks(node, ranks);
  pt.model_s = fault::checkpoint_write_model_s(
      fabric, std::min(ranks, node.total_subdevices()), bytes);
  if (ranks <= sim_cap) {
    comm::ClusterComm cluster(node, fabric, ranks);
    pt.sim_s = cluster.checkpoint_write(bytes);
  }
  return pt;
}

/// One Daly-grid cell: analytic expectation and Monte-Carlo observation.
struct DalyPoint {
  double mtbf_s = 0.0;
  double interval_s = 0.0;
  double analytic_s = 0.0;
  pvc::fault::RestartStats stats;
};

/// What placed one Daly cell, for check_restart_cell's errors: the
/// options and, when the plan has one, the chaos ckpt clause.
std::string daly_cell_context(const pvc::fault::FaultPlan& plan,
                              double work_s, int trials, double mtbf_s,
                              double factor, double center_s) {
  using pvc::format_value;
  const bool clause_interval =
      plan.checkpoint && plan.checkpoint->interval_s > 0.0;
  return std::string("resilience_sweep: ") +
         (plan.checkpoint ? "the chaos ckpt clause, " : "") + "work=" +
         format_value(work_s) + " s and trials=" + std::to_string(trials) +
         " put a Daly cell at interval " + format_value(factor) + " x " +
         (clause_interval ? "the ckpt interval " : "the Daly optimum ") +
         format_value(center_s) + " s, mtbf " + format_value(mtbf_s) +
         " s, out of bounds";
}

/// One fault-tolerant collective run of the recovery section.
struct RecoveryRun {
  const char* op = "";
  pvc::fault::RecoveryPolicy policy = pvc::fault::RecoveryPolicy::Shrink;
  double bytes = 0.0;
  pvc::fault::FtResult result;
  int failovers = 0;
};

RecoveryRun recovery_run(const pvc::arch::NodeSpec& node,
                         const pvc::sim::FabricSpec& fabric,
                         const pvc::fault::FaultPlan& plan, int ranks,
                         bool allreduce, pvc::fault::RecoveryPolicy policy,
                         int spares) {
  using namespace pvc;
  RecoveryRun run;
  run.op = allreduce ? "allreduce" : "halo";
  run.policy = policy;
  run.bytes = allreduce ? kResidualBytes : kHaloBytes;
  const int spare_nodes =
      policy == fault::RecoveryPolicy::Spare ? spares : 0;
  comm::ClusterComm cluster(node, fabric, ranks, spare_nodes);
  fault::Injector injector(plan);
  injector.arm(cluster);
  run.result =
      allreduce
          ? fault::ft_allreduce(cluster, run.bytes,
                                comm::AllreduceAlgorithm::Auto, policy)
          : fault::ft_halo_exchange(cluster, run.bytes, policy);
  run.failovers = static_cast<int>(cluster.failover_log().size());
  return run;
}

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"chaos", "csv", "metrics", "sim_ranks", "system", "threads", "trials", "work"});
  const arch::NodeSpec node = pvcbench::system_from_config(config, "Aurora");
  const sim::FabricSpec fabric = sim::FabricSpec::for_node(node);
  const long sim_cap = config.get_int("sim_ranks", 768);
  ensure(sim_cap >= 0, ErrorCode::InvalidArgument,
         "sim_ranks must be non-negative (got " + std::to_string(sim_cap) +
             "; 0 prices every point with the model)");
  const double work_s = config.get_double("work", 10000.0);
  ensure(std::isfinite(work_s) && work_s > 0.0, ErrorCode::InvalidArgument,
         [&] {
           return "work= must be a finite, positive number of seconds "
                  "(got " + config.get_string("work", "") + ")";
         });
  const long trials_arg = config.get_int("trials", 400);
  ensure(trials_arg >= 1 && trials_arg <= std::numeric_limits<int>::max(),
         ErrorCode::InvalidArgument, [&] {
           return "trials= must be in 1.." +
                  std::to_string(std::numeric_limits<int>::max()) +
                  " (got " + std::to_string(trials_arg) + ")";
         });
  const int trials = static_cast<int>(trials_arg);
  const fault::FaultPlan plan =
      fault::FaultPlan::parse(config.get("chaos").value_or(kDefaultChaos));
  // The plan is armed only on the recovery job (spare nodes aside).
  fault::check_cluster_plan(
      plan,
      {kJobNodes, fabric.nic.per_node, kJobNodes * node.total_subdevices()},
      /*reads_checkpoint=*/true);

  const double ckpt_bytes =
      plan.checkpoint ? plan.checkpoint->bytes_per_rank : kCkptBytes;
  const int base = node.total_subdevices();

  // The Daly grid: MTBF x interval factor around the Daly optimum, or
  // around the ckpt clause's interval and MTBF.  Every cell is checked
  // against the Monte Carlo's bounds before any section runs.
  const double write_cost = fault::checkpoint_write_model_s(
      fabric, base, ckpt_bytes);
  const double restart_s =
      plan.checkpoint ? plan.checkpoint->restart_s : 3.0 * write_cost;
  std::vector<double> mtbfs;
  if (plan.checkpoint && plan.checkpoint->mtbf_s > 0.0) {
    mtbfs.push_back(plan.checkpoint->mtbf_s);
  } else {
    mtbfs.assign(std::begin(kMtbfGrid), std::end(kMtbfGrid));
  }
  std::vector<DalyPoint> daly(mtbfs.size() * std::size(kIntervalFactors));
  for (std::size_t mi = 0; mi < mtbfs.size(); ++mi) {
    const double mtbf = mtbfs[mi];
    const double center =
        plan.checkpoint && plan.checkpoint->interval_s > 0.0
            ? plan.checkpoint->interval_s
            : fault::daly_optimal_interval_s(write_cost, mtbf);
    for (std::size_t fi = 0; fi < std::size(kIntervalFactors); ++fi) {
      DalyPoint& pt = daly[mi * std::size(kIntervalFactors) + fi];
      pt.mtbf_s = mtbf;
      pt.interval_s = center * kIntervalFactors[fi];
      fault::check_restart_cell(
          daly_cell_context(plan, work_s, trials, mtbf, kIntervalFactors[fi],
                            center),
          work_s, pt.interval_s, write_cost, restart_s, mtbf, trials);
    }
  }
  std::printf("%s", plan.summary().c_str());

  std::vector<int> rank_counts;
  for (const int m : kNodeMultipliers) {
    rank_counts.push_back(m * base);
  }

  CsvWriter csv;
  csv.set_header({"section", "system", "ranks", "nodes", "mode", "policy",
                  "mtbf_s", "interval_s", "bytes", "seconds", "wasted_s",
                  "energy_j", "detail"});

  // Each section runs its own single-use sweep, so every simulation runs
  // exactly once.
  const std::size_t threads =
      pvcbench::ParallelSweep::threads_from_config(config);

  // --- checkpoint write cost vs rank count ---------------------------------
  // One task per rank count; index-matched slots keep stdout and the
  // obs registry byte-identical for any threads= value
  // (tests/determinism_check.cmake).
  std::vector<CkptPoint> ckpt(rank_counts.size());
  pvcbench::ParallelSweep ckpt_sweep(threads);
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    ckpt_sweep.add([&, i] {
      ckpt[i] = ckpt_point(node, fabric, rank_counts[i], sim_cap, ckpt_bytes);
    });
  }
  ckpt_sweep.run();

  Table ckpt_table("Checkpoint write (" + format_bytes_binary(ckpt_bytes) +
                   "/rank through the NICs) — " + node.system_name);
  ckpt_table.set_header({"Ranks", "Nodes", "Mode", "Sim", "Model", "BW/rank"});
  for (const CkptPoint& pt : ckpt) {
    const bool sim_ran = pt.sim_s >= 0.0;
    const double seconds = sim_ran ? pt.sim_s : pt.model_s;
    ckpt_table.add_row(
        {std::to_string(pt.ranks), std::to_string(pt.nodes),
         sim_ran ? "sim" : "model",
         sim_ran ? format_value(pt.sim_s * 1e3, 4) + " ms" : "-",
         format_value(pt.model_s * 1e3, 4) + " ms",
         format_bandwidth(ckpt_bytes / seconds)});
    csv.add_row({"ckpt_write", node.system_name, std::to_string(pt.ranks),
                 std::to_string(pt.nodes), sim_ran ? "sim" : "model", "-", "-",
                 "-", format_value(ckpt_bytes, 0), format_value(seconds, 9),
                 "-", "-", "-"});
  }
  ckpt_table.render(std::cout);
  std::printf("\n");

  // --- Daly checkpoint/restart sweep ---------------------------------------
  const int job_nodes = kJobNodes;
  const double job_watts = node.power.node_cap_w * job_nodes;

  pvcbench::ParallelSweep daly_sweep(threads);
  for (std::size_t slot = 0; slot < daly.size(); ++slot) {
    daly_sweep.add([&, slot] {
      DalyPoint& pt = daly[slot];
      pt.analytic_s = fault::daly_expected_runtime_s(
          work_s, pt.interval_s, write_cost, restart_s, pt.mtbf_s);
      pt.stats = fault::simulate_checkpoint_restart(
          work_s, pt.interval_s, write_cost, restart_s, pt.mtbf_s,
          plan.seed + static_cast<std::uint64_t>(slot), trials);
    });
  }
  daly_sweep.run();

  Table daly_table(
      "Daly C/R sweep (" + format_value(work_s, 0) + " s of work, C=" +
      format_value(write_cost, 1) + " s, R=" + format_value(restart_s, 1) +
      " s, " + std::to_string(job_nodes) + " nodes) — " + node.system_name);
  daly_table.set_header({"MTBF", "Interval", "Analytic TTS", "Sim TTS",
                         "Wasted", "Ckpts", "Fails", "Energy"});
  for (std::size_t mi = 0; mi < mtbfs.size(); ++mi) {
    std::size_t best_analytic = 0;
    std::size_t best_sim = 0;
    for (std::size_t fi = 0; fi < std::size(kIntervalFactors); ++fi) {
      const std::size_t slot = mi * std::size(kIntervalFactors) + fi;
      if (daly[slot].analytic_s <
          daly[mi * std::size(kIntervalFactors) + best_analytic].analytic_s) {
        best_analytic = fi;
      }
      if (daly[slot].stats.elapsed_s <
          daly[mi * std::size(kIntervalFactors) + best_sim].stats.elapsed_s) {
        best_sim = fi;
      }
    }
    for (std::size_t fi = 0; fi < std::size(kIntervalFactors); ++fi) {
      const DalyPoint& pt = daly[mi * std::size(kIntervalFactors) + fi];
      const double energy_j = job_watts * pt.stats.elapsed_s;
      std::string mark;
      if (fi == best_analytic) {
        mark += " *";
      }
      if (fi == best_sim) {
        mark += " +";
      }
      daly_table.add_row(
          {format_value(pt.mtbf_s, 0) + " s",
           format_value(pt.interval_s, 1) + " s" + mark,
           format_value(pt.analytic_s, 6) + " s",
           format_value(pt.stats.elapsed_s, 6) + " s",
           format_value(pt.stats.wasted_s / pt.stats.elapsed_s * 100.0, 2) + "%",
           format_value(pt.stats.checkpoints, 1),
           format_value(pt.stats.failures, 2),
           format_value(energy_j / 1e6, 2) + " MJ"});
      csv.add_row({"daly", node.system_name, std::to_string(job_nodes * base),
                   std::to_string(job_nodes), "analytic", "-",
                   format_value(pt.mtbf_s, 3), format_value(pt.interval_s, 3),
                   "-", format_value(pt.analytic_s, 6), "-", "-", "-"});
      csv.add_row({"daly", node.system_name, std::to_string(job_nodes * base),
                   std::to_string(job_nodes), "sim", "-",
                   format_value(pt.mtbf_s, 3), format_value(pt.interval_s, 3),
                   "-", format_value(pt.stats.elapsed_s, 6),
                   format_value(pt.stats.wasted_s, 6),
                   format_value(energy_j, 1),
                   format_value(pt.stats.failures, 4)});
    }
  }
  daly_table.render(std::cout);
  std::printf("  * analytic minimum   + simulated minimum "
              "(must agree within one grid step)\n\n");

  // --- fault-tolerant recovery at scale ------------------------------------
  const int job_ranks = job_nodes * base;
  int spares = 0;
  {
    std::vector<int> seen;
    for (const auto& ev : plan.node_downs) {
      bool dup = false;
      for (const int n : seen) {
        dup = dup || n == ev.node;
      }
      if (!dup) {
        seen.push_back(ev.node);
      }
    }
    spares = std::max(1, static_cast<int>(seen.size()));
  }

  const fault::RecoveryPolicy policies[] = {fault::RecoveryPolicy::Shrink,
                                            fault::RecoveryPolicy::Spare};
  std::vector<RecoveryRun> runs(4);
  pvcbench::ParallelSweep recovery_sweep(threads);
  for (std::size_t pi = 0; pi < 2; ++pi) {
    for (std::size_t op = 0; op < 2; ++op) {
      const std::size_t slot = pi * 2 + op;
      recovery_sweep.add([&, slot, pi, op] {
        runs[slot] = recovery_run(node, fabric, plan, job_ranks,
                                  /*allreduce=*/op == 1, policies[pi], spares);
      });
    }
  }
  recovery_sweep.run();

  Table rec_table("Recovery under '" +
                  config.get("chaos").value_or(kDefaultChaos) + "' at " +
                  std::to_string(job_ranks) + " ranks — " + node.system_name);
  rec_table.set_header({"Op", "Policy", "Algorithm", "Elapsed", "Rounds",
                        "Failures", "Recoveries", "Survivors", "Failovers"});
  for (const RecoveryRun& r : runs) {
    const char* algo = r.op == std::string("allreduce")
                           ? comm::allreduce_algorithm_name(r.result.algo)
                           : "ring";
    rec_table.add_row(
        {r.op, fault::recovery_policy_name(r.policy), algo,
         format_value(r.result.elapsed_s * 1e6, 3) + " us",
         std::to_string(r.result.rounds_run),
         std::to_string(r.result.failures),
         std::to_string(r.result.recoveries),
         std::to_string(static_cast<int>(r.result.participants.size())),
         std::to_string(r.failovers)});
    csv.add_row({"recovery", node.system_name, std::to_string(job_ranks),
                 std::to_string(job_nodes), "sim",
                 fault::recovery_policy_name(r.policy), "-", "-",
                 format_value(r.bytes, 0), format_value(r.result.elapsed_s, 9),
                 "-", "-",
                 std::string(r.op) + ":" + algo + ":recoveries=" +
                     std::to_string(r.result.recoveries)});
  }
  rec_table.render(std::cout);

  std::printf(
      "\nRecovery note: shrink reruns the schedule over the survivors "
      "(the participant set loses the dead node's %d ranks); spare fails "
      "the node over to a hot spare and reruns at full width.  Both are "
      "deterministic — the same spec, seed, and policy reproduce every "
      "row bit-identically.\n",
      base);

  pvcbench::maybe_write_csv(config, csv);
  pvcbench::maybe_write_metrics(config);
  return 0;
}

}  // namespace

PVCBENCH_MAIN(resilience_sweep);
