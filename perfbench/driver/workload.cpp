#include "workload.hpp"

#include <random>
#include <stdexcept>
#include <utility>

#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "fault/plan.hpp"
#include "runtime/node_sim.hpp"
#include "sim/cache_model.hpp"
#include "sim/fabric.hpp"

namespace perfbench {
namespace {

// Mirrors of bench constants the generated specs must respect.
constexpr int kRecoveryJobNodes = 64;  // resilience_sweep recovery section
constexpr int kClusterSizes[] = {768, 6144};
constexpr const char* kClusterSystems[] = {"Aurora", "Dawn"};

Op make_op(std::string id, const char* bench, std::vector<std::string> args,
           bool seeded = false) {
  const pvcbench::BenchEntry* entry = pvcbench::find_bench(bench);
  if (entry == nullptr) {
    throw std::runtime_error(std::string("bench not registered: ") + bench);
  }
  const std::string name = bench;
  Op op;
  op.id = std::move(id);
  op.entry = entry;
  op.args = std::move(args);
  op.takes_threads = name != "table2_microbench" &&
                     name != "table4_refspecs" &&
                     name != "roofline_analysis";
  op.seeded = seeded;
  op.cluster = name == "scaling_multinode" || name == "resilience_sweep";
  return op;
}

/// Uniform draw in [0, n) from the workload's generator.
int draw(std::mt19937_64& rng, int n) {
  return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
}

/// resilience_sweep arms its plan only in the 64-node recovery section,
/// so any node below 64 exists; the time lands while the collective's
/// first round is in flight.
std::string nodedown_spec(std::mt19937_64& rng) {
  const int node = draw(rng, kRecoveryJobNodes);
  const int at_us = 1 + draw(rng, 40);
  return "nodedown:node=" + std::to_string(node) +
         ",at=" + std::to_string(at_us) + "us";
}

/// scaling_multinode arms its plan at every DES size down to one node,
/// so the fault targets node 0 and a NIC the system's nodes have.
std::string nic_fault_spec(std::mt19937_64& rng,
                           const pvc::arch::NodeSpec& node) {
  const int nics = pvc::sim::FabricSpec::for_node(node).nic.per_node;
  const int nic = draw(rng, nics);
  const int at_us = draw(rng, 20);
  const std::string where =
      "node=0,nic=" + std::to_string(nic) + ",";
  if (draw(rng, 2) == 0) {
    return "nicdown:" + where + "at=" + std::to_string(at_us) + "us";
  }
  static constexpr const char* kFactors[] = {"0.25", "0.5", "0.75"};
  return "nicdegrade:" + where + "factor=" + kFactors[draw(rng, 3)] +
         ",at=" + std::to_string(at_us) + "us";
}

/// Two chaos_degradation scenarios sharing the healthy baselines (the
/// bench's add_keyed dedup): message drops, then a degraded Xe-Link on
/// the remote pair Table III measures, with drops.
std::string chaos_scenarios(std::mt19937_64& rng) {
  pvc::rt::NodeSim probe(pvc::arch::aurora());
  const auto& topo = *probe.topology();
  const auto members = topo.plane_members(0);
  const int a = topo.flat_index(members[0]);
  const int b = topo.flat_index(members[1]);
  static constexpr const char* kDrops[] = {"0.01", "0.02", "0.03", "0.05"};
  static constexpr const char* kFactors[] = {"0.25", "0.5", "0.75"};
  const std::string retries = ";retries:max=8,backoff=5us";
  const std::string first = "seed:" + std::to_string(draw(rng, 1000)) +
                            ";drop:" + kDrops[draw(rng, 4)] + retries;
  const std::string second =
      "seed:" + std::to_string(draw(rng, 1000)) + ";degrade:a=" +
      std::to_string(a) + ",b=" + std::to_string(b) + ",factor=" +
      kFactors[draw(rng, 3)] + ",at=0;drop:" + kDrops[draw(rng, 4)] + retries;
  return first + "|" + second;
}

Workload fig1_chase() {
  Workload w;
  w.name = "fig1_chase";
  w.ops = {make_op("fig1_latency", "fig1_latency", {}),
           make_op("table2_microbench", "table2_microbench", {}),
           make_op("ablation_model", "ablation_model", {})};
  // One cache hierarchy per system plus the ablation's no-LLC variant.
  w.build_machines = [systems = pvc::arch::all_systems()] {
    for (const auto& node : systems) {
      const pvc::sim::CacheHierarchy h(node.card.subdevice.caches,
                                       node.card.subdevice.hbm.latency_cycles);
    }
    const auto& aurora = systems.front();
    const pvc::sim::CacheHierarchy no_llc(
        {aurora.card.subdevice.caches[0]},
        aurora.card.subdevice.hbm.latency_cycles);
  };
  return w;
}

Workload cluster_des(std::uint64_t seed) {
  Workload w;
  w.name = "cluster_des";
  std::mt19937_64 rng(seed ^ 0x636c7573746572ull);
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    for (const char* system : kClusterSystems) {
      for (const int ranks : kClusterSizes) {
        w.ops.push_back(make_op(std::string(bench) + "." + system + "." +
                                    std::to_string(ranks),
                                bench,
                                {std::string("system=") + system,
                                 "sim_ranks=" + std::to_string(ranks)}));
      }
    }
  }
  for (const char* system : kClusterSystems) {
    const auto node = pvc::arch::system_by_name(system);
    w.ops.push_back(make_op(
        std::string("scaling_multinode.") + system + ".768.fault",
        "scaling_multinode",
        {std::string("system=") + system, "sim_ranks=768",
         "chaos=" + nic_fault_spec(rng, node)},
        /*seeded=*/true));
    w.ops.push_back(make_op(
        std::string("resilience_sweep.") + system + ".768.fault",
        "resilience_sweep",
        {std::string("system=") + system, "sim_ranks=768",
         "chaos=" + nodedown_spec(rng)},
        /*seeded=*/true));
  }
  // One cluster per system and op size.
  struct Machine {
    pvc::arch::NodeSpec node;
    pvc::sim::FabricSpec fabric;
    int ranks;
  };
  std::vector<Machine> machines;
  for (const char* system : kClusterSystems) {
    const auto node = pvc::arch::system_by_name(system);
    for (const int ranks : kClusterSizes) {
      machines.push_back({node, pvc::sim::FabricSpec::for_node(node), ranks});
    }
  }
  w.build_machines = [machines = std::move(machines)] {
    for (const Machine& m : machines) {
      const pvc::comm::ClusterComm cluster(m.node, m.fabric, m.ranks);
    }
  };
  return w;
}

Workload node_tables(std::uint64_t seed) {
  Workload w;
  w.name = "node_tables";
  std::mt19937_64 rng(seed ^ 0x6e6f6465ull);
  for (const char* bench :
       {"table3_p2p", "table4_refspecs", "table6_foms", "fig2_aurora_vs_dawn",
        "fig3_vs_h100", "fig4_vs_mi250", "roofline_analysis", "power_report",
        "scaling_sweep"}) {
    w.ops.push_back(make_op(bench, bench, {}));
  }
  w.ops.push_back(
      make_op("sweep_msgsize.Aurora", "sweep_msgsize", {"system=Aurora"}));
  w.ops.push_back(
      make_op("sweep_msgsize.Dawn", "sweep_msgsize", {"system=Dawn"}));
  w.ops.push_back(make_op("chaos_degradation", "chaos_degradation", {}));
  w.ops.push_back(make_op("chaos_degradation.two", "chaos_degradation",
                          {"chaos=" + chaos_scenarios(rng)},
                          /*seeded=*/true));
  w.build_machines = [systems = pvc::arch::all_systems()] {
    for (const auto& node : systems) {
      const pvc::rt::NodeSim sim(node);
    }
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig1_chase", "cluster_des",
                                                 "node_tables"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig1_chase") {
    return fig1_chase();
  }
  if (name == "cluster_des") {
    return cluster_des(seed);
  }
  if (name == "node_tables") {
    return node_tables(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string op_arg(const Op& op, const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& arg : op.args) {
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return "";
}

std::size_t self_test_fault_specs(std::uint64_t seeds) {
  std::size_t checked = 0;
  const auto fail = [](const std::string& why, const std::string& spec) {
    throw std::runtime_error("fault spec '" + spec + "': " + why);
  };
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    for (const std::string& name : {std::string("cluster_des"),
                                    std::string("node_tables")}) {
      for (const Op& op : make_workload(name, seed).ops) {
        const std::string chaos = op_arg(op, "chaos");
        if (chaos.empty()) {
          continue;
        }
        const auto node = pvc::arch::system_by_name(
            op_arg(op, "system").empty() ? "Aurora" : op_arg(op, "system"));
        const int nics = pvc::sim::FabricSpec::for_node(node).nic.per_node;
        std::size_t start = 0;
        for (;;) {
          const std::size_t bar = chaos.find('|', start);
          const std::string spec = chaos.substr(start, bar - start);
          const auto plan = pvc::fault::FaultPlan::parse(spec);
          for (const auto& ev : plan.node_downs) {
            if (ev.node < 0 || ev.node >= kRecoveryJobNodes) {
              fail("node outside the 64-node recovery job", spec);
            }
          }
          for (const auto& ev : plan.nic_downs) {
            if (ev.node != 0 || ev.nic < 0 || ev.nic >= nics) {
              fail("NIC not on every instantiated node", spec);
            }
          }
          for (const auto& ev : plan.nic_degradations) {
            if (ev.node != 0 || ev.nic < 0 || ev.nic >= nics) {
              fail("NIC not on every instantiated node", spec);
            }
          }
          for (const auto& ev : plan.degradations) {
            if (ev.a < 0 || ev.b < 0 || ev.a >= node.total_subdevices() ||
                ev.b >= node.total_subdevices()) {
              fail("link endpoint outside the node", spec);
            }
          }
          ++checked;
          if (bar == std::string::npos) {
            break;
          }
          start = bar + 1;
        }
      }
    }
  }
  return checked;
}

}  // namespace perfbench
