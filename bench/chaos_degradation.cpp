// Throughput under injected faults vs the healthy baseline, for the
// paper's Table III point-to-point pairs (local MDFI pair and remote
// Xe-Link pair on Aurora).  The degraded column runs the same traffic
// with a chaos plan armed — by default a downed Xe-Link on the measured
// remote pair (forcing the host-staging reroute, docs/ROBUSTNESS.md)
// plus a 2% message-drop probability with retry-with-backoff.
//
// `chaos=` accepts a `|`-separated list of plans; each scenario gets
// its own degraded row pair while the two healthy baselines — identical
// computations across scenarios — are scheduled once via the sweep's
// add_keyed dedup and re-rendered from the canonical result slot
// (`sweep.deduped_tasks` counts the discards).
//
// Usage: chaos_degradation [chaos=<spec>[|<spec>...]] [csv=<path>]
//        [metrics=<path>] [threads=<n>]

#include <cstddef>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "bench_entry.hpp"
#include "comm/communicator.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "parallel_sweep.hpp"
#include "runtime/node_sim.hpp"

namespace {

using pvc::MB;

/// First disjoint same-plane (direct Xe-Link) pair, as Table III uses.
std::pair<int, int> first_remote_pair(const pvc::arch::NodeSpec& spec) {
  pvc::rt::NodeSim probe(spec);
  pvc::ensure(probe.topology().has_value(),
              "chaos_degradation: system has no Xe-Link topology");
  const auto& topo = *probe.topology();
  const auto members = topo.plane_members(0);
  pvc::ensure(members.size() >= 2,
              "chaos_degradation: plane has fewer than two stacks");
  return {topo.flat_index(members[0]), topo.flat_index(members[1])};
}

/// One message over the communicator between `pair`, posted shortly
/// after t=0 so fault windows armed at the epoch are already open when
/// the route is chosen.  Returns achieved bytes/s.
double measure_pair(const pvc::arch::NodeSpec& spec, std::pair<int, int> pair,
                    double message_bytes, const pvc::fault::FaultPlan* plan) {
  pvc::rt::NodeSim sim(spec);
  pvc::fault::Injector injector(plan != nullptr ? *plan
                                                : pvc::fault::FaultPlan{});
  auto comm = pvc::comm::Communicator::explicit_scaling(sim);
  if (plan != nullptr) {
    injector.arm(sim);
    injector.attach(comm);
  }
  const pvc::sim::Time start = 1e-6;
  std::optional<pvc::comm::Request> send;
  std::optional<pvc::comm::Request> recv;
  sim.engine().schedule_at(start, [&] {
    send = comm.isend(pair.first, pair.second, /*tag=*/0, message_bytes);
    recv = comm.irecv(pair.second, pair.first, /*tag=*/0, message_bytes);
  });
  sim.run();
  pvc::ensure(recv.has_value() && !recv->failed(),
              "chaos_degradation: transfer did not survive the fault plan (" +
                  (recv.has_value() ? recv->error() : "never posted") + ")");
  pvc::ensure(recv->done(), "chaos_degradation: transfer never completed");
  const double elapsed = recv->complete_time() - start;
  pvc::ensure(elapsed > 0.0, "chaos_degradation: zero elapsed time");
  return message_bytes / elapsed;
}

std::string slowdown_cell(double healthy_bps, double degraded_bps) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2fx slower",
                healthy_bps / degraded_bps);
  return buf;
}

/// Splits `chaos=` on '|' into individual plan specs (empty segments
/// rejected — a trailing '|' is almost certainly a typo).
std::vector<std::string> split_scenarios(const std::string& chaos) {
  std::vector<std::string> specs;
  std::size_t start = 0;
  for (;;) {
    const std::size_t bar = chaos.find('|', start);
    const std::string spec = chaos.substr(
        start, bar == std::string::npos ? std::string::npos : bar - start);
    pvc::ensure(!spec.empty(), pvc::ErrorCode::InvalidArgument, [&] {
      return "chaos_degradation: empty scenario in 'chaos' list: chaos=" +
             chaos;
    });
    specs.push_back(spec);
    if (bar == std::string::npos) {
      return specs;
    }
    start = bar + 1;
  }
}

int run(int argc, char** argv) {
  const auto config = pvc::Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"chaos", "csv", "metrics", "threads"});
  const auto spec = pvc::arch::aurora();

  const std::pair<int, int> local{0, 1};
  const std::pair<int, int> remote = first_remote_pair(spec);

  const std::string default_chaos =
      "seed:42;linkdown:a=" + std::to_string(remote.first) +
      ",b=" + std::to_string(remote.second) +
      ",at=0;drop:0.02;retries:max=8,backoff=5us";
  const std::string chaos = config.get("chaos").value_or(default_chaos);
  const std::vector<std::string> scenario_specs = split_scenarios(chaos);
  // Every scenario is checked against the node and the measured pairs
  // before any plan prints, so a clause the bench would ignore or trip
  // over late fails first.
  const int measured[] = {local.first, local.second, remote.first,
                          remote.second};
  std::vector<pvc::fault::FaultPlan> plans;
  plans.reserve(scenario_specs.size());
  for (const std::string& s : scenario_specs) {
    plans.push_back(pvc::fault::FaultPlan::parse(s));
    pvc::fault::check_node_plan(plans.back(), spec, measured);
  }
  for (const pvc::fault::FaultPlan& plan : plans) {
    std::printf("%s\n", plan.summary().c_str());
  }

  const double message = 500.0 * MB;
  // Every pair/plan combination is an independent simulation (each
  // fault plan holds its own seeded Rng state via the Injector copy),
  // so they run as sweep tasks; the per-seed result is bit-reproducible
  // for any threads= value.  The healthy baselines are keyed so that a
  // multi-scenario run computes each of them exactly once.
  pvcbench::ParallelSweep sweep(
      pvcbench::ParallelSweep::threads_from_config(config));
  std::vector<double> bps;  // one slot per scheduled (non-deduped) task
  const auto schedule = [&](const std::string& key, std::pair<int, int> pair,
                            const pvc::fault::FaultPlan* plan) {
    const std::size_t slot = bps.size();
    const std::size_t index =
        sweep.add_keyed(key, [&bps, &spec, pair, message, plan, slot] {
          bps[slot] = measure_pair(spec, pair, message, plan);
        });
    if (index == slot) {
      bps.push_back(0.0);  // fresh task; duplicates reuse the first slot
    }
    return index;
  };
  struct ScenarioSlots {
    std::size_t local_healthy;
    std::size_t local_degraded;
    std::size_t remote_healthy;
    std::size_t remote_degraded;
  };
  std::vector<ScenarioSlots> scenarios;
  scenarios.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    // Each scenario nominally wants its own healthy baselines, but they
    // are the same computation for every scenario — the shared keys let
    // the sweep schedule them once and point later scenarios at the
    // canonical slot.  Degraded runs are keyed by their plan spec, so
    // repeating a spec in the chaos= list is also collapsed.
    scenarios.push_back(
        {schedule("healthy:local", local, nullptr),
         schedule("degraded:local:" + scenario_specs[i], local, &plans[i]),
         schedule("healthy:remote", remote, nullptr),
         schedule("degraded:remote:" + scenario_specs[i], remote, &plans[i])});
  }
  sweep.run();

  const std::string local_label = "Local MDFI " + std::to_string(local.first) +
                                  "<->" + std::to_string(local.second);
  const std::string remote_label =
      "Remote Xe-Link " + std::to_string(remote.first) + "<->" +
      std::to_string(remote.second);
  pvc::Table table("Throughput under faults — Table III P2P pairs (" +
                   std::string(spec.system_name) + ")");
  table.set_header({"Scenario", "Pair", "Healthy", "Degraded", "Slowdown"});
  pvc::CsvWriter csv;
  csv.set_header(
      {"scenario", "pair", "healthy_bps", "degraded_bps", "slowdown"});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = std::string("s").append(std::to_string(i));
    const double lh = bps[scenarios[i].local_healthy];
    const double ld = bps[scenarios[i].local_degraded];
    const double rh = bps[scenarios[i].remote_healthy];
    const double rd = bps[scenarios[i].remote_degraded];
    table.add_row({name, local_label, pvc::format_bandwidth(lh),
                   pvc::format_bandwidth(ld), slowdown_cell(lh, ld)});
    table.add_row({name, remote_label, pvc::format_bandwidth(rh),
                   pvc::format_bandwidth(rd), slowdown_cell(rh, rd)});
    csv.add_row({name, "local", pvc::format_value(lh, 6),
                 pvc::format_value(ld, 6), pvc::format_value(lh / ld, 4)});
    csv.add_row({name, "remote", pvc::format_value(rh, 6),
                 pvc::format_value(rd, 6), pvc::format_value(rh / rd, 4)});
  }
  table.render(std::cout);

  if (sweep.deduped_tasks() > 0) {
    std::printf("\n%zu duplicate sweep point(s) served from the canonical "
                "slot (healthy baselines shared across scenarios).\n",
                sweep.deduped_tasks());
  }
  std::printf(
      "\nNote: with the Xe-Link down the remote pair survives via the "
      "host-staging reroute (PCIe D2H + H2D through host DDR), at a "
      "store-and-forward penalty; counters land in net.reroutes / "
      "comm.retries (docs/ROBUSTNESS.md).\n");

  pvcbench::maybe_write_csv(config, csv);
  pvcbench::maybe_write_metrics(config);
  return 0;
}

}  // namespace

PVCBENCH_MAIN(chaos_degradation);
