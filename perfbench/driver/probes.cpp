#include "probes.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "kernels/pointer_chase.hpp"
#include "micro/message_sweep.hpp"
#include "micro/microbench.hpp"
#include "micro/table_results.hpp"
#include "report/figures.hpp"
#include "report/roofline.hpp"
#include "report/table6.hpp"
#include "runtime/node_sim.hpp"
#include "sim/cache_model.hpp"
#include "sim/fabric.hpp"

namespace perfbench {
namespace {

using pvc::KiB;
using pvc::MiB;

// Bench constants (bench/*.cpp), mirrored so the probes see the same
// inputs as the ops.
constexpr double kHaloBytes = 256.0 * 1024.0;
constexpr double kResidualBytes = 8.0;
constexpr double kCkptBytes = 16.0 * 1024.0 * 1024.0 * 1024.0;
constexpr int kNodeMultipliers[] = {1, 4, 16, 64, 256, 512};
constexpr int kJobNodes = 64;
constexpr const char* kResilienceDefaultChaos = "seed:7;nodedown:node=3,at=2us";
constexpr double kIntervalFactors[] = {0.25, 0.5, 1.0, 2.0, 4.0};
constexpr double kMtbfGrid[] = {250.0, 1000.0, 4000.0};
constexpr double kWorkSeconds = 10000.0;
constexpr int kTrials = 400;

/// One chase exactly as a bench issues it.
struct Chase {
  pvc::kernels::ChaseConfig config;
  pvc::arch::NodeSpec node;
  std::size_t level_count = 0;  ///< cache levels kept; 1 = no LLC
};

/// micro::measure_latency_curve's per-footprint configuration.
pvc::kernels::ChaseConfig curve_config(double footprint) {
  pvc::kernels::ChaseConfig config;
  config.footprint_bytes = static_cast<std::size_t>(footprint);
  config.coalesced = true;
  const std::size_t nodes = config.footprint_bytes / 64;
  config.steps = std::min<std::uint64_t>(20000, nodes * 4);
  config.warmup_steps = std::min<std::uint64_t>(nodes, 8u << 20);
  return config;
}

std::uint64_t steps_walked(const pvc::kernels::ChaseConfig& config) {
  const std::uint64_t nodes = config.footprint_bytes / 64;
  return (config.warmup_steps > 0 ? config.warmup_steps : nodes) +
         config.steps;
}

pvc::sim::CacheHierarchy make_hierarchy(const pvc::arch::NodeSpec& node,
                                        std::size_t levels) {
  auto caches = node.card.subdevice.caches;
  caches.resize(std::min(levels, caches.size()));
  return pvc::sim::CacheHierarchy(caches,
                                  node.card.subdevice.hbm.latency_cycles);
}

/// Mirror of micro::measure_latency_curve: one hierarchy, one
/// kernels::chase_simulated per footprint.  Returns the curve.
std::vector<double> latency_curve(ProbeScope& scope,
                                  const pvc::arch::NodeSpec& node,
                                  const std::vector<double>& footprints) {
  const ScopedSpan curve = scope.span("micro.latency_curve");
  std::unique_ptr<pvc::sim::CacheHierarchy> hierarchy;
  {
    const ScopedSpan build = scope.span("sim.cache.build", curve.id());
    hierarchy = std::make_unique<pvc::sim::CacheHierarchy>(
        make_hierarchy(node, node.card.subdevice.caches.size()));
  }
  std::vector<double> latencies;
  for (const double footprint : footprints) {
    const auto config = curve_config(footprint);
    const ScopedSpan chase = scope.span("kernels.chase", curve.id());
    latencies.push_back(
        pvc::kernels::chase_simulated(*hierarchy, config).avg_latency_cycles);
    scope.stats.chase_steps += steps_walked(config);
  }
  return latencies;
}

/// Re-executes a group of chases that share one configuration, and so
/// one permutation and one address sequence, in three phases: the
/// Sattolo build (core.sattolo), the host-side idx = next[idx] walk
/// (kernels.chase_walk), and each chase's cache model replaying the same
/// 4096-load blocks (sim.cache.access).  This splits kernels.chase time
/// the way kernels::chase_simulated spends it.  The group builds and
/// walks its permutation once; the bench does so once per chase, so the
/// repeats are added to stats.reused_seconds.
void chase_split(ProbeScope& scope, const std::vector<Chase>& group) {
  const ScopedSpan split = scope.span(kChaseSplitSpan);
  const pvc::kernels::ChaseConfig& config = group.front().config;
  const std::size_t nodes = config.footprint_bytes / 64;
  const auto repeats = static_cast<double>(group.size() - 1);
  std::vector<std::uint32_t> next(nodes);
  {
    const Clock::time_point start = Clock::now();
    const ScopedSpan sattolo = scope.span("core.sattolo", split.id());
    pvc::Rng rng(config.seed);
    pvc::sattolo_cycle(rng, next.data(), nodes);
    scope.stats.reused_seconds["core.sattolo"] +=
        repeats * seconds_between(start, Clock::now());
  }
  const std::uint64_t warmup = config.warmup_steps > 0
                                   ? config.warmup_steps
                                   : static_cast<std::uint64_t>(nodes);
  std::vector<std::uint64_t> addrs(warmup + config.steps);
  {
    const Clock::time_point start = Clock::now();
    const ScopedSpan walk = scope.span("kernels.chase_walk", split.id());
    std::uint32_t idx = 0;
    for (std::uint64_t& addr : addrs) {
      addr = static_cast<std::uint64_t>(idx) * 64;
      idx = next[idx];
    }
    scope.stats.reused_seconds["kernels.chase_walk"] +=
        repeats * seconds_between(start, Clock::now());
  }
  for (const Chase& chase : group) {
    auto hierarchy = make_hierarchy(chase.node, chase.level_count);
    const ScopedSpan access = scope.span("sim.cache.access", split.id());
    constexpr std::size_t kBlock = 4096;
    // Warmup and timed phases are separate block sequences, as in the
    // kernel.
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, warmup},
          std::pair<std::size_t, std::size_t>{warmup, addrs.size()}}) {
      for (std::size_t b = begin; b < end; b += kBlock) {
        static_cast<void>(hierarchy.access_run(
            {addrs.data() + b, std::min(kBlock, end - b)}));
      }
    }
    hierarchy.flush_metrics();
  }
}

/// Chases grouped by configuration (footprint, steps, warmup, seed).
std::vector<std::vector<Chase>> group_by_config(
    const std::vector<Chase>& chases) {
  std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                      std::uint64_t>,
           std::vector<Chase>>
      groups;
  for (const Chase& c : chases) {
    groups[{c.config.footprint_bytes, c.config.steps, c.config.warmup_steps,
            c.config.seed}]
        .push_back(c);
  }
  std::vector<std::vector<Chase>> out;
  for (auto& [key, group] : groups) {
    out.push_back(std::move(group));
  }
  return out;
}

std::vector<Chase> curve_chases(const pvc::arch::NodeSpec& node,
                                const std::vector<double>& footprints) {
  std::vector<Chase> chases;
  for (const double footprint : footprints) {
    chases.push_back(
        {curve_config(footprint), node, node.card.subdevice.caches.size()});
  }
  return chases;
}

/// Checks the mirrored curve against the op's CSV rows for `system`.
void check_curve(ProbeScope& scope, const std::string& csv,
                 const std::string& system,
                 const std::vector<double>& footprints,
                 const std::vector<double>& latencies) {
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    const std::string row = system + "," +
                            pvc::format_value(footprints[i], 8) + "," +
                            pvc::format_value(latencies[i], 6) + "\n";
    if (csv.find(row) == std::string::npos) {
      scope.stats.mismatches.push_back("latency curve row '" +
                                       row.substr(0, row.size() - 1) + "'");
    }
  }
}

void nodesim_builds(ProbeScope& scope,
                    const std::vector<pvc::arch::NodeSpec>& nodes) {
  for (const auto& node : nodes) {
    const ScopedSpan span = scope.span("runtime.nodesim_build");
    const pvc::rt::NodeSim sim(node);
  }
}

void table6_columns(ProbeScope& scope,
                    const std::vector<pvc::arch::NodeSpec>& nodes,
                    std::vector<pvc::report::Table6Column>& columns) {
  for (const auto& node : nodes) {
    const ScopedSpan span = scope.span("report.table6");
    columns.push_back(pvc::report::compute_table6(node));
  }
}

/// Adds a probe-owned cluster's engine events and the time since
/// `start` spent driving them.
void record_engine(ProbeScope& scope, pvc::comm::ClusterComm& cluster,
                   Clock::time_point start) {
  scope.stats.engine_events += cluster.engine().events_executed();
  scope.stats.engine_seconds += seconds_between(start, Clock::now());
}

std::vector<int> des_rank_counts(const pvc::arch::NodeSpec& node, int cap) {
  std::vector<int> ranks;
  for (const int m : kNodeMultipliers) {
    if (m * node.total_subdevices() <= cap) {
      ranks.push_back(m * node.total_subdevices());
    }
  }
  return ranks;
}

/// scaling_multinode's halo section at every DES size.
void halo_points(ProbeScope& scope, const pvc::arch::NodeSpec& node,
                 const pvc::fault::FaultPlan& plan, int cap) {
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  for (const int ranks : des_rank_counts(node, cap)) {
    std::unique_ptr<pvc::comm::ClusterComm> cluster;
    {
      const ScopedSpan build = scope.span("comm.cluster_build");
      cluster = std::make_unique<pvc::comm::ClusterComm>(node, fabric, ranks);
    }
    pvc::fault::Injector injector(plan);
    injector.arm(*cluster);
    const Clock::time_point start = Clock::now();
    const ScopedSpan halo = scope.span("comm.halo");
    static_cast<void>(pvc::comm::cluster_halo_exchange(*cluster, kHaloBytes));
    record_engine(scope, *cluster, start);
  }
}

/// resilience_sweep's three sections.
void resilience(ProbeScope& scope, const pvc::arch::NodeSpec& node,
                const pvc::fault::FaultPlan& plan, int cap) {
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  for (const int ranks : des_rank_counts(node, cap)) {
    std::unique_ptr<pvc::comm::ClusterComm> cluster;
    {
      const ScopedSpan build = scope.span("comm.cluster_build");
      cluster = std::make_unique<pvc::comm::ClusterComm>(node, fabric, ranks);
    }
    const Clock::time_point start = Clock::now();
    const ScopedSpan write = scope.span("fault.ckpt_write");
    static_cast<void>(cluster->checkpoint_write(kCkptBytes));
    record_engine(scope, *cluster, start);
  }

  const int base = node.total_subdevices();
  const double write_cost =
      pvc::fault::checkpoint_write_model_s(fabric, base, kCkptBytes);
  std::uint64_t slot = 0;
  for (const double mtbf : kMtbfGrid) {
    const double center = pvc::fault::daly_optimal_interval_s(write_cost, mtbf);
    for (const double factor : kIntervalFactors) {
      const ScopedSpan mc = scope.span("fault.cr_mc");
      static_cast<void>(pvc::fault::simulate_checkpoint_restart(
          kWorkSeconds, center * factor, write_cost, 3.0 * write_cost, mtbf,
          plan.seed + slot++, kTrials));
    }
  }

  std::set<int> down_nodes;
  for (const auto& ev : plan.node_downs) {
    down_nodes.insert(ev.node);
  }
  const int spares = std::max(1, static_cast<int>(down_nodes.size()));
  for (const auto policy : {pvc::fault::RecoveryPolicy::Shrink,
                            pvc::fault::RecoveryPolicy::Spare}) {
    for (const bool allreduce : {false, true}) {
      std::unique_ptr<pvc::comm::ClusterComm> cluster;
      {
        const ScopedSpan build = scope.span("comm.cluster_build");
        cluster = std::make_unique<pvc::comm::ClusterComm>(
            node, fabric, kJobNodes * base,
            policy == pvc::fault::RecoveryPolicy::Spare ? spares : 0);
      }
      pvc::fault::Injector injector(plan);
      injector.arm(*cluster);
      const Clock::time_point start = Clock::now();
      const ScopedSpan recovery = scope.span("fault.recovery");
      static_cast<void>(
          allreduce ? pvc::fault::ft_allreduce(
                          *cluster, kResidualBytes,
                          pvc::comm::AllreduceAlgorithm::Auto, policy)
                    : pvc::fault::ft_halo_exchange(*cluster, kHaloBytes,
                                                   policy));
      record_engine(scope, *cluster, start);
    }
  }
}

pvc::arch::NodeSpec op_system(const Op& op) {
  const std::string system = op_arg(op, "system");
  return pvc::arch::system_by_name(system.empty() ? "Aurora" : system);
}

int op_sim_ranks(const Op& op) {
  const std::string cap = op_arg(op, "sim_ranks");
  return cap.empty() ? 768 : std::stoi(cap);
}

}  // namespace

void ProbeStats::merge(const ProbeStats& other) {
  chase_steps += other.chase_steps;
  for (const auto& [name, seconds] : other.reused_seconds) {
    reused_seconds[name] += seconds;
  }
  engine_events += other.engine_events;
  engine_seconds += other.engine_seconds;
  mismatches.insert(mismatches.end(), other.mismatches.begin(),
                    other.mismatches.end());
}

std::vector<ProbeTask> probe_tasks(const Op& op, int op_index,
                                   const std::string& csv) {
  using pvc::arch::Precision;
  using pvc::arch::Scope;
  const std::string bench = op.entry->name;
  std::vector<ProbeTask> tasks;
  const auto add = [&](std::function<void(ProbeScope&)> run) {
    tasks.push_back({op_index, std::move(run)});
  };
  const auto add_splits = [&](const std::vector<Chase>& chases) {
    for (auto& group : group_by_config(chases)) {
      add([group = std::move(group)](ProbeScope& s) {
        chase_split(s, group);
      });
    }
  };

  if (bench == "fig1_latency") {
    std::vector<Chase> chases;
    for (const auto& node : pvc::arch::all_systems()) {
      const auto footprints = pvc::micro::default_latency_footprints(node);
      add([node, footprints, csv](ProbeScope& s) {
        const auto curve = latency_curve(s, node, footprints);
        check_curve(s, csv, node.system_name, footprints, curve);
      });
      const auto curve = curve_chases(node, footprints);
      chases.insert(chases.end(), curve.begin(), curve.end());
    }
    add_splits(chases);
  } else if (bench == "table2_microbench") {
    add([](ProbeScope& s) {
      for (const auto& node : {pvc::arch::aurora(), pvc::arch::dawn()}) {
        const ScopedSpan span = s.span("micro.table2");
        static_cast<void>(pvc::micro::compute_table2(node));
      }
    });
    // The three-footprint latency spot check on Aurora.
    const std::vector<double> spot = {64.0 * KiB, 16.0 * MiB, 512.0 * MiB};
    add([spot](ProbeScope& s) {
      static_cast<void>(latency_curve(s, pvc::arch::aurora(), spot));
    });
    add_splits(curve_chases(pvc::arch::aurora(), spot));
  } else if (bench == "ablation_model") {
    // The LLC ablation: a 16 MiB chase with and without the LLC level,
    // default warmup (one full lap).
    pvc::kernels::ChaseConfig config;
    config.footprint_bytes = static_cast<std::size_t>(16.0 * MiB);
    config.steps = 20000;
    const auto aurora = pvc::arch::aurora();
    const std::vector<Chase> chases = {
        {config, aurora, aurora.card.subdevice.caches.size()},
        {config, aurora, 1}};
    add([chases](ProbeScope& s) {
      for (const Chase& chase : chases) {
        std::unique_ptr<pvc::sim::CacheHierarchy> hierarchy;
        {
          const ScopedSpan build = s.span("sim.cache.build");
          hierarchy = std::make_unique<pvc::sim::CacheHierarchy>(
              make_hierarchy(chase.node, chase.level_count));
        }
        const ScopedSpan span = s.span("kernels.chase");
        static_cast<void>(pvc::kernels::chase_simulated(*hierarchy,
                                                        chase.config));
        s.stats.chase_steps += steps_walked(chase.config);
      }
    });
    add_splits(chases);
    // The other four ablations are micro-layer measurements, each with
    // the mechanism on and off.
    add([](ProbeScope& s) {
      const auto on = pvc::arch::aurora();
      auto governor_off = on;
      governor_off.power.stack_cap_w = 1e9;
      governor_off.power.card_cap_w = 1e9;
      governor_off.power.node_cap_w = 1e9;
      auto host_off = on;
      host_off.host_io.d2h_total_bps = 1e15;
      host_off.host_io.bidir_total_bps = 1e15;
      auto fabric_off = on;
      fabric_off.fabric.aggregate_bps = 0.0;
      auto gemm_off = on;
      gemm_off.calib.gemm_eff_fp64 = 1.0;
      using Pair = std::array<const pvc::arch::NodeSpec*, 2>;
      for (const auto* node : Pair{&on, &governor_off}) {
        const ScopedSpan span = s.span("micro.table2");
        static_cast<void>(pvc::micro::measure_peak_flops(
            *node, Precision::FP32, Scope::OneSubdevice));
        static_cast<void>(pvc::micro::measure_peak_flops(
            *node, Precision::FP64, Scope::OneSubdevice));
      }
      for (const auto* node : Pair{&on, &host_off}) {
        const ScopedSpan span = s.span("micro.table2");
        static_cast<void>(pvc::micro::measure_pcie_bandwidth(
            *node, pvc::micro::PcieDirection::D2H, Scope::FullNode));
      }
      for (const auto* node : Pair{&on, &fabric_off}) {
        const ScopedSpan span = s.span("micro.table3");
        static_cast<void>(pvc::micro::measure_p2p(*node, true));
      }
      for (const auto* node : Pair{&on, &gemm_off}) {
        const ScopedSpan span = s.span("micro.table2");
        static_cast<void>(pvc::micro::measure_gemm(*node, Precision::FP64,
                                                   Scope::OneSubdevice));
      }
    });
  } else if (bench == "table3_p2p") {
    add([](ProbeScope& s) {
      nodesim_builds(s, {pvc::arch::aurora(), pvc::arch::dawn()});
      for (const auto& [node, remote] :
           {std::pair{pvc::arch::aurora(), true},
            std::pair{pvc::arch::dawn(), false}}) {
        const ScopedSpan span = s.span("micro.table3");
        static_cast<void>(pvc::micro::compute_table3(node, remote));
      }
    });
  } else if (bench == "table6_foms") {
    add([](ProbeScope& s) {
      std::vector<pvc::report::Table6Column> columns;
      table6_columns(s, pvc::arch::all_systems(), columns);
    });
  } else if (bench == "fig2_aurora_vs_dawn" || bench == "fig3_vs_h100" ||
             bench == "fig4_vs_mi250") {
    add([bench](ProbeScope& s) {
      std::vector<pvc::arch::NodeSpec> nodes;
      if (bench == "fig3_vs_h100") {
        nodes.push_back(pvc::arch::jlse_h100());
      } else if (bench == "fig4_vs_mi250") {
        nodes.push_back(pvc::arch::jlse_mi250());
      }
      nodes.push_back(pvc::arch::aurora());
      nodes.push_back(pvc::arch::dawn());
      std::vector<pvc::report::Table6Column> c;
      table6_columns(s, nodes, c);
      const ScopedSpan span = s.span("report.figures");
      if (bench == "fig2_aurora_vs_dawn") {
        static_cast<void>(pvc::report::figure2_bars(c[0], c[1]));
      } else if (bench == "fig3_vs_h100") {
        static_cast<void>(pvc::report::figure3_bars(c[0], c[1], c[2]));
      } else {
        static_cast<void>(pvc::report::figure4_bars(c[0], c[1], c[2]));
      }
    });
  } else if (bench == "roofline_analysis") {
    add([](ProbeScope& s) {
      for (const auto& node : pvc::arch::all_systems()) {
        const ScopedSpan span = s.span("report.figures");
        static_cast<void>(pvc::report::build_roofline(node));
        static_cast<void>(pvc::report::place_paper_workloads(node));
      }
    });
  } else if (bench == "sweep_msgsize") {
    add([node = op_system(op)](ProbeScope& s) {
      nodesim_builds(s, {node});
      const auto sizes = pvc::micro::default_message_sizes();
      for (const auto path : pvc::micro::available_paths(node)) {
        const ScopedSpan span = s.span("micro.msg_sweep");
        static_cast<void>(pvc::micro::sweep_path(node, path, sizes));
      }
    });
  } else if (bench == "chaos_degradation") {
    add([](ProbeScope& s) { nodesim_builds(s, {pvc::arch::aurora()}); });
  } else if (bench == "scaling_multinode") {
    const std::string chaos = op_arg(op, "chaos");
    add([node = op_system(op), cap = op_sim_ranks(op), chaos](ProbeScope& s) {
      halo_points(s, node,
                  chaos.empty() ? pvc::fault::FaultPlan{}
                                : pvc::fault::FaultPlan::parse(chaos),
                  cap);
    });
  } else if (bench == "resilience_sweep") {
    const std::string chaos = op_arg(op, "chaos");
    add([node = op_system(op), cap = op_sim_ranks(op), chaos](ProbeScope& s) {
      resilience(s, node,
                 pvc::fault::FaultPlan::parse(
                     chaos.empty() ? kResilienceDefaultChaos : chaos),
                 cap);
    });
  }
  return tasks;
}

}  // namespace perfbench
