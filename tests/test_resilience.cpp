// Cluster-scale failure & recovery (docs/ROBUSTNESS.md): flow aborts,
// whole-node faults on ClusterComm, spare-node failover and its
// from-scratch binding oracle, fault-tolerant collective schedules vs
// their reference oracles, the checkpoint/restart cost model
// (Daly analytic vs the seeded discrete model vs the flow-level write),
// and the injector's lifetime registration token.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "comm/collectives.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/flow_network.hpp"

namespace pvc {
namespace {

using comm::AllreduceAlgorithm;
using comm::ClusterComm;

sim::FabricSpec aurora_fabric() {
  return sim::FabricSpec::for_node(arch::aurora());
}

// --- FlowNetwork::abort_flow -------------------------------------------------

TEST(FlowAbort, ActiveFlowDiesWithoutCompleting) {
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  bool completed = false;
  const sim::FlowId id = net.start_flow(
      std::array{link}, 500.0, 0.0, [&](sim::Time) { completed = true; });
  engine.schedule_after(1.0, [&] { EXPECT_TRUE(net.abort_flow(id)); });
  engine.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.flows_aborted(), 1u);
}

TEST(FlowAbort, AbortReleasesBandwidthToSurvivors) {
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  double done_at = -1.0;
  const sim::FlowId victim = net.start_flow(std::array{link}, 1000.0, 0.0, {});
  net.start_flow(std::array{link}, 150.0, 0.0,
                 [&](sim::Time t) { done_at = t; });
  engine.schedule_after(1.0, [&] { net.abort_flow(victim); });
  engine.run();
  // 50 B shared in the first second, the remaining 100 B at full rate.
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(FlowAbort, LatencyPhaseFlowNeverActivates) {
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  bool completed = false;
  const sim::FlowId id = net.start_flow(
      std::array{link}, 100.0, 2.0, [&](sim::Time) { completed = true; });
  engine.schedule_after(1.0, [&] { EXPECT_TRUE(net.abort_flow(id)); });
  engine.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.flows_aborted(), 1u);
}

TEST(FlowAbort, UnknownOrFinishedIdReturnsFalse) {
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  const sim::FlowId id = net.start_flow(std::array{link}, 100.0, 0.0, {});
  engine.run();
  EXPECT_FALSE(net.abort_flow(id));      // already completed
  EXPECT_FALSE(net.abort_flow(id + 7));  // never existed
  EXPECT_EQ(net.flows_aborted(), 0u);
}

TEST(FlowAbort, StaleIdOfAReusedSlotIsRejected) {
  // A finished flow's id goes stale when a new flow takes its slot: it
  // must neither abort nor report the newcomer.
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  const sim::FlowId first = net.start_flow(std::array{link}, 100.0, 0.0, {});
  engine.run();
  double done = -1.0;
  const sim::FlowId second = net.start_flow(
      std::array{link}, 100.0, 0.0, [&](sim::Time t) { done = t; });
  ASSERT_NE(first, second);
  ASSERT_EQ(static_cast<std::uint32_t>(first),
            static_cast<std::uint32_t>(second));  // the same slot
  EXPECT_FALSE(net.abort_flow(first));
  EXPECT_EQ(net.flow_rate(first), 0.0);
  EXPECT_EQ(net.flow_rate(second), 100.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
  EXPECT_EQ(net.flows_aborted(), 0u);
}

TEST(FlowAbort, AbortedLatencyEventLeavesTheSlotsNextFlowAlone) {
  // A flow aborted in its latency phase frees its slot at once; the
  // next flow takes it.  The aborted flow's pending latency event must
  // then bail instead of activating the newcomer early.
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const sim::LinkId link = net.add_link(sim::LinkClass::Other, 100.0);
  const sim::FlowId doomed = net.start_flow(std::array{link}, 100.0, 1.0, {});
  ASSERT_TRUE(net.abort_flow(doomed));
  double done = -1.0;
  const sim::FlowId next = net.start_flow(
      std::array{link}, 100.0, 2.0, [&](sim::Time t) { done = t; });
  ASSERT_EQ(static_cast<std::uint32_t>(doomed),
            static_cast<std::uint32_t>(next));  // the same slot
  engine.schedule_at(1.5, [&] {
    EXPECT_EQ(net.active_flows(), 0u);  // still in its latency phase
    EXPECT_EQ(net.flow_rate(next), 0.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 3.0);  // activates at 2 s, 100 B at 100 B/s
  EXPECT_FALSE(net.abort_flow(doomed));
  EXPECT_EQ(net.flows_aborted(), 1u);
}

// --- whole-node faults on ClusterComm ---------------------------------------

TEST(ClusterFaults, NodeDownKillsInflightFlowsAndWrapperRaisesRankFailed) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  fault::Injector injector(fault::FaultPlan::parse("nodedown:node=1,at=2us"));
  injector.arm(cluster);
  // 256 KiB inter-node flows span ~10 us, so the 2 us event lands while
  // node 1's flows are in flight — they die, the exchange still returns.
  try {
    (void)comm::cluster_halo_exchange(cluster, 256.0 * KB);
    FAIL() << "expected RankFailed";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::RankFailed);
  }
  EXPECT_FALSE(cluster.rank_alive(12));
  EXPECT_EQ(cluster.failed_ranks(), 12);
  EXPECT_GT(cluster.network().flows_aborted(), 0u);
}

TEST(ClusterFaults, NodeDownMidAllToAllFailsOnlyThatNodesMessages) {
  // An all-to-all over two nodes with a nodedown landing while the
  // flows are in flight.  The fault is an ordinary engine event, so it
  // fires between deliveries: messages touching node 1 that are still
  // in flight die, everything else completes.
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  fault::Injector injector(fault::FaultPlan::parse("nodedown:node=1,at=2us"));
  injector.arm(cluster);
  std::vector<ClusterComm::Message> msgs;
  for (int s = 0; s < 24; ++s) {
    for (int d = 0; d < 24; ++d) {
      if (s != d) {
        msgs.push_back({s, d, 64.0 * KB});
      }
    }
  }
  const auto result = cluster.exchange(msgs);
  EXPECT_GT(result.failures, 0);  // the fault actually landed mid-flight
  EXPECT_LT(result.failures, static_cast<int>(msgs.size()));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (result.failed[i] != 0) {
      EXPECT_TRUE(cluster.binding(msgs[i].src).node == 1 ||
                  cluster.binding(msgs[i].dst).node == 1)
          << "idx " << i;
    } else {
      EXPECT_GT(result.completion_s[i], 0.0) << "idx " << i;
      EXPECT_LE(result.completion_s[i], result.finish) << "idx " << i;
    }
  }
}

TEST(ClusterFaults, DeadEndpointMessagesAreRefusedAtPostTime) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  cluster.set_rank_failed(5);
  const ClusterComm::Message msgs[] = {{5, 18, 1024.0},   // dead source
                                       {18, 5, 1024.0},   // dead destination
                                       {1, 2, 1024.0}};   // healthy
  const auto result = cluster.exchange(msgs);
  EXPECT_EQ(result.failures, 2);
  EXPECT_EQ(result.failed[0], 1);
  EXPECT_EQ(result.failed[1], 1);
  EXPECT_EQ(result.failed[2], 0);
  EXPECT_DOUBLE_EQ(result.completion_s[0], 0.0);
  EXPECT_GT(result.completion_s[2], 0.0);
}

TEST(ClusterFaults, RestoringANodeRevivesAllButIndividuallyFailedRanks) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  cluster.set_rank_failed(13);
  cluster.set_node_down(1, true);
  EXPECT_FALSE(cluster.rank_alive(12));
  EXPECT_EQ(cluster.failed_ranks(), 12);
  cluster.set_node_down(1, false);
  EXPECT_TRUE(cluster.rank_alive(12));
  EXPECT_FALSE(cluster.rank_alive(13));  // rankfail is permanent
  EXPECT_EQ(cluster.failed_ranks(), 1);
}

// --- spare-node failover -----------------------------------------------------

TEST(Failover, ActivateSpareMatchesTheReferenceBindingOracle) {
  const auto node = arch::aurora();
  const auto fabric = aurora_fabric();
  ClusterComm cluster(node, fabric, 36, /*spare_nodes=*/2);
  EXPECT_EQ(cluster.compute_node_count(), 3);
  EXPECT_EQ(cluster.node_count(), 5);

  cluster.set_node_down(1, true);
  EXPECT_EQ(cluster.activate_spare(1), 3);
  cluster.set_node_down(0, true);
  EXPECT_EQ(cluster.activate_spare(0), 4);
  for (int r = 0; r < cluster.size(); ++r) {
    EXPECT_TRUE(cluster.rank_alive(r)) << "rank " << r;
  }

  const auto reference = ClusterComm::reference_failover_binding(
      node, fabric.nic.per_node, 36, cluster.failover_log());
  ASSERT_EQ(reference.size(), 36u);
  for (int r = 0; r < 36; ++r) {
    const auto& got = cluster.binding(r);
    const auto& want = reference[static_cast<std::size_t>(r)];
    EXPECT_EQ(got.node, want.node) << "rank " << r;
    EXPECT_EQ(got.local_rank, want.local_rank);
    EXPECT_EQ(got.card, want.card);
    EXPECT_EQ(got.stack, want.stack);
    EXPECT_EQ(got.core, want.core);
    EXPECT_EQ(got.nic, want.nic);
  }
}

TEST(Failover, ExhaustedSparesRaiseRankFailed) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24, /*spare_nodes=*/1);
  (void)cluster.activate_spare(0);
  try {
    (void)cluster.activate_spare(1);
    FAIL() << "expected RankFailed";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::RankFailed);
  }
}

TEST(Failover, SpareNodeCarriesRealTrafficAfterRemap) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24, /*spare_nodes=*/1);
  cluster.set_node_down(1, true);
  (void)cluster.activate_spare(1);
  // Rank 12 now lives on node 2 (the spare); the exchange must succeed.
  const ClusterComm::Message msgs[] = {{0, 12, 64.0 * KB}};
  const auto result = cluster.exchange(msgs);
  EXPECT_EQ(result.failures, 0);
  EXPECT_GT(result.completion_s[0], 0.0);
  EXPECT_EQ(cluster.binding(12).node, 2);
}

// --- fault-tolerant schedules vs oracle --------------------------------------

void expect_schedule_matches_oracle(AllreduceAlgorithm algo, int m) {
  std::vector<int> participants;
  for (int i = 0; i < m; ++i) {
    participants.push_back(i * 3 + 1);  // non-trivial rank labels
  }
  const auto reference =
      fault::reference_ft_schedule(participants, algo, 4096.0);
  ASSERT_EQ(static_cast<int>(reference.size()),
            m == 1 ? 0 : comm::allreduce_round_count(algo, m))
      << comm::allreduce_algorithm_name(algo) << " m=" << m;
  for (int round = 0; round < static_cast<int>(reference.size()); ++round) {
    const auto built =
        fault::ft_round_messages(participants, algo, round, 4096.0);
    const auto& want = reference[static_cast<std::size_t>(round)];
    ASSERT_EQ(built.size(), want.size())
        << comm::allreduce_algorithm_name(algo) << " m=" << m
        << " round=" << round;
    for (std::size_t i = 0; i < built.size(); ++i) {
      EXPECT_EQ(built[i].src, want[i].src);
      EXPECT_EQ(built[i].dst, want[i].dst);
      EXPECT_DOUBLE_EQ(built[i].bytes, want[i].bytes);
    }
  }
}

TEST(FtSchedule, EveryAlgorithmMatchesItsFromScratchOracle) {
  for (const auto algo :
       {AllreduceAlgorithm::Ring, AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::ReduceBroadcast}) {
    for (const int m : {2, 3, 5, 8, 12, 13, 31, 64}) {
      expect_schedule_matches_oracle(algo, m);
    }
  }
}

TEST(FtSchedule, RejectsAutoAndOutOfRangeRounds) {
  const std::vector<int> participants{0, 1, 2, 3};
  EXPECT_THROW((void)fault::ft_round_messages(
                   participants, AllreduceAlgorithm::Auto, 0, 8.0),
               pvc::Error);
  EXPECT_THROW((void)fault::ft_round_messages(
                   participants, AllreduceAlgorithm::Ring, 6, 8.0),
               pvc::Error);
  EXPECT_THROW(
      (void)fault::reference_ft_schedule(participants,
                                         AllreduceAlgorithm::Auto, 8.0),
      pvc::Error);
}

TEST(FtSchedule, RoundCountsFollowTheClosedForms) {
  EXPECT_EQ(comm::allreduce_round_count(AllreduceAlgorithm::Ring, 8), 14);
  EXPECT_EQ(
      comm::allreduce_round_count(AllreduceAlgorithm::RecursiveDoubling, 8),
      3);
  EXPECT_EQ(
      comm::allreduce_round_count(AllreduceAlgorithm::RecursiveDoubling, 12),
      5);  // fold + 3 butterfly rounds + unfold
  EXPECT_EQ(
      comm::allreduce_round_count(AllreduceAlgorithm::ReduceBroadcast, 12),
      8);  // ceil(log2 12)=4 reduce + log2(16)=4 broadcast
  EXPECT_EQ(comm::allreduce_round_count(AllreduceAlgorithm::Ring, 1), 0);
  EXPECT_THROW(
      (void)comm::allreduce_round_count(AllreduceAlgorithm::Auto, 8),
      pvc::Error);
}

// --- fault-tolerant recovery -------------------------------------------------

TEST(FtRecovery, ShrinkDropsTheDeadNodeAndCompletes) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 36);
  fault::Injector injector(
      fault::FaultPlan::parse("seed:7;nodedown:node=1,at=2us"));
  injector.arm(cluster);
  const auto result = fault::ft_halo_exchange(cluster, 256.0 * KB,
                                              fault::RecoveryPolicy::Shrink);
  EXPECT_GE(result.recoveries, 1);
  EXPECT_GT(result.failures, 0);
  EXPECT_EQ(result.participants.size(), 24u);
  EXPECT_EQ(result.participants, fault::surviving_ranks(cluster));
  for (const int r : result.participants) {
    EXPECT_TRUE(r < 12 || r >= 24) << "rank " << r;  // node 1 gone
  }
}

TEST(FtRecovery, SpareFailoverKeepsTheFullWidth) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 36, /*spare_nodes=*/1);
  fault::Injector injector(
      fault::FaultPlan::parse("seed:7;nodedown:node=1,at=2us"));
  injector.arm(cluster);
  const auto result = fault::ft_halo_exchange(cluster, 256.0 * KB,
                                              fault::RecoveryPolicy::Spare);
  EXPECT_GE(result.recoveries, 1);
  EXPECT_EQ(result.participants.size(), 36u);
  ASSERT_EQ(cluster.failover_log().size(), 1u);
  EXPECT_EQ(cluster.failover_log()[0].failed_node, 1);
  EXPECT_EQ(cluster.failover_log()[0].spare_node, 3);
  EXPECT_EQ(result.participants, fault::surviving_ranks(cluster));
}

TEST(FtRecovery, SpareNeverBurnsASpareOnAnIndividuallyFailedRank) {
  // A rankfail on a healthy node alongside a real nodedown: the single
  // spare must go to the downed node, and the individually failed rank
  // is shrunk out instead of dragging its (healthy) node through
  // failover.
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 36, /*spare_nodes=*/1);
  fault::Injector injector(fault::FaultPlan::parse(
      "seed:7;rankfail:rank=5,at=1us;nodedown:node=1,at=2us"));
  injector.arm(cluster);
  const auto result = fault::ft_halo_exchange(cluster, 256.0 * KB,
                                              fault::RecoveryPolicy::Spare);
  ASSERT_EQ(cluster.failover_log().size(), 1u);
  EXPECT_EQ(cluster.failover_log()[0].failed_node, 1);
  EXPECT_EQ(result.participants.size(), 35u);  // rank 5 shrunk, node 1 back
  EXPECT_FALSE(cluster.rank_alive(5));
  EXPECT_EQ(result.participants, fault::surviving_ranks(cluster));
}

TEST(FtRecovery, AllreduceReResolvesAutoAfterAShrink) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  fault::Injector injector(
      fault::FaultPlan::parse("seed:7;rankfail:rank=3,at=1us"));
  injector.arm(cluster);
  const auto result = fault::ft_allreduce(
      cluster, 8.0, AllreduceAlgorithm::Auto, fault::RecoveryPolicy::Shrink);
  // 24 ranks pick reduce-broadcast (small, non-power-of-two); after the
  // shrink to 23 the re-resolved choice stays reduce-broadcast.
  EXPECT_EQ(result.algo, AllreduceAlgorithm::ReduceBroadcast);
  EXPECT_EQ(result.participants.size(), 23u);
}

/// resilience_sweep's recovery job at its defaults: 768 Aurora ranks
/// (64 nodes), node 3 dying 2 us into the collective, one spare node
/// under Spare, an 8 B allreduce or a 256 KiB ring halo.
fault::FtResult recovery_at_scale(bool allreduce, fault::RecoveryPolicy policy) {
  const auto node = arch::aurora();
  ClusterComm cluster(
      node, sim::FabricSpec::for_node(node), 768,
      policy == fault::RecoveryPolicy::Spare ? 1 : 0);
  fault::Injector injector(
      fault::FaultPlan::parse("seed:7;nodedown:node=3,at=2us"));
  injector.arm(cluster);
  return allreduce ? fault::ft_allreduce(cluster, 8.0,
                                         AllreduceAlgorithm::Auto, policy)
                   : fault::ft_halo_exchange(cluster, 256.0 * KiB, policy);
}

TEST(FtRecovery, BothPoliciesAreBitReproducibleAt768Ranks) {
  for (const bool allreduce : {false, true}) {
    for (const auto policy :
         {fault::RecoveryPolicy::Shrink, fault::RecoveryPolicy::Spare}) {
      const auto first = recovery_at_scale(allreduce, policy);
      const auto second = recovery_at_scale(allreduce, policy);
      // Bit-identical, not approximately equal: same spec, seed, and
      // policy must reproduce the run exactly (acceptance criterion).
      EXPECT_EQ(std::memcmp(&first.elapsed_s, &second.elapsed_s,
                            sizeof(double)),
                0);
      EXPECT_EQ(first.rounds_run, second.rounds_run);
      EXPECT_EQ(first.failures, second.failures);
      EXPECT_EQ(first.recoveries, second.recoveries);
      EXPECT_EQ(first.participants, second.participants);
      EXPECT_EQ(first.algo, second.algo);
      EXPECT_GE(first.recoveries, 1);
      EXPECT_EQ(first.participants.size(),
                policy == fault::RecoveryPolicy::Spare ? 768u : 756u);
    }
  }
}

TEST(ClusterFaults, RecoveryJobElapsedMatchesTheSerialOracle) {
  // The elapsed times resilience_sweep prints for its recovery job, as
  // the serial engine prices them.  Each recovery round starts from the
  // previous round's last delivery; a clock parked any later between
  // rounds inflates them.
  for (const auto policy :
       {fault::RecoveryPolicy::Shrink, fault::RecoveryPolicy::Spare}) {
    EXPECT_NEAR(recovery_at_scale(/*allreduce=*/true, policy).elapsed_s,
                1.08006329e-4, 1e-12)
        << fault::recovery_policy_name(policy);
    EXPECT_NEAR(recovery_at_scale(/*allreduce=*/false, policy).elapsed_s,
                1.44159289e-4, 1e-12)
        << fault::recovery_policy_name(policy);
  }
}

// --- checkpoint/restart model ------------------------------------------------

TEST(Checkpoint, FlowLevelWriteTracksTheClosedFormModel) {
  const auto node = arch::aurora();
  const auto fabric = aurora_fabric();
  const double bytes = 64.0 * MB;
  for (const int ranks : {12, 24, 48}) {
    ClusterComm cluster(node, fabric, ranks);
    const double sim_s = cluster.checkpoint_write(bytes);
    const double model_s = fault::checkpoint_write_model_s(
        fabric, std::min(ranks, node.total_subdevices()), bytes);
    EXPECT_NEAR(sim_s, model_s, 0.05 * model_s) << ranks << " ranks";
  }
}

TEST(Checkpoint, WriteSkipsDeadRanks) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  const double healthy = cluster.checkpoint_write(16.0 * MB);
  cluster.set_node_down(1, true);
  const double degraded = cluster.checkpoint_write(16.0 * MB);
  EXPECT_GT(healthy, 0.0);
  EXPECT_GT(degraded, 0.0);
  EXPECT_LE(degraded, healthy);  // half the ranks, never slower
}

TEST(Checkpoint, DalyOptimalIntervalClampsAndValidates) {
  // Closed form: sqrt(2CM)(1 + sqrt(C/2M)/3 + C/18M) - C.
  const double tau = fault::daly_optimal_interval_s(10.0, 1000.0);
  EXPECT_NEAR(tau, std::sqrt(2.0 * 10.0 * 1000.0) *
                       (1.0 + std::sqrt(0.005) / 3.0 + 0.005 / 9.0) -
                       10.0,
              1e-9);
  // Write cost beyond 2x MTBF: checkpointing cannot pay off, clamp.
  EXPECT_DOUBLE_EQ(fault::daly_optimal_interval_s(500.0, 100.0), 100.0);
  EXPECT_THROW((void)fault::daly_optimal_interval_s(0.0, 100.0), pvc::Error);
}

TEST(Checkpoint, ResolvedIntervalHonoursExplicitThenDaly) {
  fault::CheckpointPlan plan;
  plan.bytes_per_rank = 1.0;
  plan.interval_s = 42.0;
  EXPECT_DOUBLE_EQ(fault::resolved_interval_s(plan, 10.0), 42.0);
  plan.interval_s = 0.0;
  plan.mtbf_s = 1000.0;
  EXPECT_DOUBLE_EQ(fault::resolved_interval_s(plan, 10.0),
                   fault::daly_optimal_interval_s(10.0, 1000.0));
  plan.mtbf_s = 0.0;
  EXPECT_THROW((void)fault::resolved_interval_s(plan, 10.0), pvc::Error);
}

TEST(Checkpoint, DiscreteEventMinimumLandsWithinOneStepOfDaly) {
  // The acceptance grid: W=10000 s, C=10 s, R=30 s, M=1000 s over
  // doubling intervals.  Daly's analytic argmin is 140 s; the seeded
  // Monte-Carlo minimum must land within one grid step.
  const double work = 10000.0, ckpt = 10.0, restart = 30.0, mtbf = 1000.0;
  const double grid[] = {35.0, 70.0, 140.0, 280.0, 560.0};
  int analytic_best = 0;
  int sim_best = 0;
  double analytic_min = 0.0;
  double sim_min = 0.0;
  for (int i = 0; i < 5; ++i) {
    const double analytic =
        fault::daly_expected_runtime_s(work, grid[i], ckpt, restart, mtbf);
    const auto stats = fault::simulate_checkpoint_restart(
        work, grid[i], ckpt, restart, mtbf, 2026, 500);
    if (i == 0 || analytic < analytic_min) {
      analytic_min = analytic;
      analytic_best = i;
    }
    if (i == 0 || stats.elapsed_s < sim_min) {
      sim_min = stats.elapsed_s;
      sim_best = i;
    }
    // The two estimators agree pointwise too (Monte-Carlo tolerance).
    EXPECT_NEAR(stats.elapsed_s, analytic, 0.05 * analytic) << grid[i];
  }
  EXPECT_EQ(analytic_best, 2);  // tau* ~ 132 s -> 140 s on this grid
  EXPECT_LE(std::abs(analytic_best - sim_best), 1);
}

TEST(Checkpoint, MonteCarloIsSeedDeterministicAndFailureFreeWithoutMtbf) {
  const auto a =
      fault::simulate_checkpoint_restart(1000.0, 100.0, 5.0, 20.0, 300.0, 11, 64);
  const auto b =
      fault::simulate_checkpoint_restart(1000.0, 100.0, 5.0, 20.0, 300.0, 11, 64);
  EXPECT_EQ(std::memcmp(&a.elapsed_s, &b.elapsed_s, sizeof(double)), 0);
  EXPECT_EQ(a.failures, b.failures);

  const auto calm =
      fault::simulate_checkpoint_restart(1000.0, 100.0, 5.0, 20.0, 0.0, 11, 4);
  EXPECT_DOUBLE_EQ(calm.failures, 0.0);
  EXPECT_DOUBLE_EQ(calm.wasted_s, 0.0);
  // 10 segments, 9 checkpoints (the final segment skips its write).
  EXPECT_DOUBLE_EQ(calm.checkpoints, 9.0);
  EXPECT_DOUBLE_EQ(calm.elapsed_s, 1000.0 + 9.0 * 5.0);
}

TEST(Checkpoint, MonteCarloRejectsUnboundedCalls) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_invalid = [](double work, double interval, double ckpt,
                                 double restart, double mtbf, int trials,
                                 const char* word) {
    try {
      (void)fault::simulate_checkpoint_restart(work, interval, ckpt, restart,
                                               mtbf, 1, trials);
      ADD_FAILURE() << "accepted work " << work << " interval " << interval;
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << e.what();
      EXPECT_NE(std::string(e.what()).find(word), std::string::npos)
          << e.what();
    }
  };
  // Non-finite inputs, before anything is laid out.
  expect_invalid(inf, 10.0, 1.0, 1.0, 0.0, 1, "finite");
  expect_invalid(100.0, inf, 1.0, 1.0, 0.0, 1, "finite");
  expect_invalid(100.0, 10.0, nan, 1.0, 0.0, 1, "finite");
  expect_invalid(100.0, 10.0, 1.0, inf, 0.0, 1, "finite");
  expect_invalid(100.0, 10.0, 1.0, 1.0, inf, 1, "finite");
  // At most 2^20 segments per trial: exactly 2^20 runs, one more is an
  // error naming work and interval.
  constexpr double kSegments = 1u << 20;
  const auto full = fault::simulate_checkpoint_restart(kSegments, 1.0, 0.0,
                                                       0.0, 0.0, 1, 1);
  EXPECT_DOUBLE_EQ(full.checkpoints, kSegments - 1.0);
  expect_invalid(kSegments + 1.0, 1.0, 0.0, 0.0, 0.0, 1, "work");
  expect_invalid(kSegments + 1.0, 1.0, 0.0, 0.0, 0.0, 1, "interval");
  // At most 2^32 segments in all: 4096 segments x 2^20 trials is the
  // limit (checked, not run), one more trial is an error naming trials,
  // work and interval.
  EXPECT_EQ(fault::check_restart_cell("cell", 4096.0, 1.0, 0.0, 0.0, 0.0,
                                      1 << 20),
            4096u);
  for (const char* word : {"trials", "work", "interval", "2^32"}) {
    expect_invalid(4096.0, 1.0, 0.0, 0.0, 0.0, (1 << 20) + 1, word);
  }
  try {
    (void)fault::check_restart_cell("Daly cell 7", 100.0, 0.0, 0.0, 0.0, 0.0,
                                    1);
    ADD_FAILURE() << "accepted a zero interval";
  } catch (const pvc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("Daly cell 7: "), std::string::npos)
        << e.what();
  }
  // At most 1e9 expected failures: ten segments of cost M ln 2 expect
  // one failure each, so 1e8 + 1 trials is just over the limit.
  const double mtbf = 10.0 / std::log(2.0);
  expect_invalid(100.0, 10.0, 0.0, 0.0, mtbf, 100000001, "mtbf");
  expect_invalid(100.0, 10.0, 0.0, 0.0, mtbf, 100000001, "interval");
  EXPECT_GT(fault::simulate_checkpoint_restart(100.0, 10.0, 0.0, 0.0, mtbf,
                                               1, 1000)
                .failures,
            0.0);
}

// --- CheckpointOracle: the laid-out schedule vs the per-trial walk ----------

/// What reference_checkpoint_restart() observed: the RestartStats and
/// the totals simulate_checkpoint_restart() adds to fault.checkpoints,
/// fault.restarts and fault.lost_work_seconds.
struct ReferenceRestart {
  fault::RestartStats stats;
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  double lost = 0.0;
};

/// The C/R Monte Carlo as it was before the segment schedule was laid
/// out once per call: every trial walks the `done`/`segment`/`cost`
/// chain itself.  Kept verbatim as the oracle, except that it returns
/// its metric totals instead of recording them.
ReferenceRestart reference_checkpoint_restart(double work_s,
                                              double interval_s,
                                              double checkpoint_s,
                                              double restart_s, double mtbf_s,
                                              std::uint64_t seed, int trials) {
  Rng rng(seed ^ 0xda1e0fda11ull);
  const auto draw_failure = [&] {
    return -mtbf_s * std::log(1.0 - rng.uniform());
  };

  fault::RestartStats total;
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  double lost = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    double t = 0.0;
    double done = 0.0;      // durable (checkpointed) work
    double ckpt_time = 0.0;
    double wasted = 0.0;
    std::uint64_t trial_ckpts = 0;
    std::uint64_t trial_fails = 0;
    double next_fail = mtbf_s > 0.0 ? draw_failure()
                                    : std::numeric_limits<double>::infinity();
    while (done < work_s) {
      const double segment = std::min(interval_s, work_s - done);
      const bool final_segment = done + segment >= work_s;
      const double cost = segment + (final_segment ? 0.0 : checkpoint_s);
      if (next_fail < t + cost) {
        // The failure lands before the segment (and its checkpoint)
        // become durable: everything since the last checkpoint is lost.
        wasted += next_fail - t;
        t = next_fail + restart_s;
        ++trial_fails;
        next_fail = t + draw_failure();
        continue;
      }
      t += cost;
      done += segment;
      if (!final_segment) {
        ckpt_time += checkpoint_s;
        ++trial_ckpts;
      }
    }
    total.elapsed_s += t;
    total.wasted_s += wasted;
    total.checkpoint_s += ckpt_time;
    total.checkpoints += static_cast<double>(trial_ckpts);
    total.failures += static_cast<double>(trial_fails);
    checkpoints += trial_ckpts;
    failures += trial_fails;
    lost += wasted;
  }
  const double n = static_cast<double>(trials);
  total.elapsed_s /= n;
  total.wasted_s /= n;
  total.checkpoint_s /= n;
  total.checkpoints /= n;
  total.failures /= n;
  return {total, checkpoints, failures, lost};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Runs simulate_checkpoint_restart() under a fresh registry and checks
/// every RestartStats field and metric total bit for bit against the
/// oracle.
void expect_matches_reference(double work, double interval, double ckpt,
                              double restart, double mtbf,
                              std::uint64_t seed, int trials) {
  SCOPED_TRACE(::testing::Message()
               << std::hexfloat << "W=" << work << " tau=" << interval
               << " C=" << ckpt << " R=" << restart << " M=" << mtbf
               << std::defaultfloat << " seed=" << seed
               << " trials=" << trials);
  const ReferenceRestart want = reference_checkpoint_restart(
      work, interval, ckpt, restart, mtbf, seed, trials);
  obs::Registry registry;
  fault::RestartStats got;
  {
    obs::ScopedRegistry scope(registry);
    got = fault::simulate_checkpoint_restart(work, interval, ckpt, restart,
                                             mtbf, seed, trials);
  }
  EXPECT_TRUE(same_bits(got.elapsed_s, want.stats.elapsed_s));
  EXPECT_TRUE(same_bits(got.wasted_s, want.stats.wasted_s));
  EXPECT_TRUE(same_bits(got.checkpoint_s, want.stats.checkpoint_s));
  EXPECT_TRUE(same_bits(got.checkpoints, want.stats.checkpoints));
  EXPECT_TRUE(same_bits(got.failures, want.stats.failures));
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.count("fault.checkpoints"), want.checkpoints);
  EXPECT_EQ(snap.count("fault.restarts"), want.failures);
  EXPECT_TRUE(same_bits(snap.value("fault.lost_work_seconds"), want.lost));
}

TEST(CheckpointOracle, BenchGridMatchesThePerTrialWalk) {
  // resilience_sweep's Daly grid at its defaults, on both systems:
  // 10000 s of work, C = one node's modelled 16 GiB/rank write, R = 3C,
  // the three MTBFs x five interval factors around the Daly optimum,
  // seeds 7-21 (the default chaos seed + cell), 400 trials.
  for (const auto& node : {arch::aurora(), arch::dawn()}) {
    SCOPED_TRACE(node.system_name);
    const double write = fault::checkpoint_write_model_s(
        sim::FabricSpec::for_node(node), node.total_subdevices(),
        16.0 * 1024.0 * 1024.0 * 1024.0);
    std::uint64_t seed = 7;
    for (const double mtbf : {250.0, 1000.0, 4000.0}) {
      const double center = fault::daly_optimal_interval_s(write, mtbf);
      for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        expect_matches_reference(10000.0, center * factor, write,
                                 3.0 * write, mtbf, seed++, 400);
      }
    }
  }
}

TEST(CheckpointOracle, RandomGeometriesMatchThePerTrialWalk) {
  // 1000 seeded geometries, bounded so the walk finishes quickly (at
  // most ~4000 segments, and an MTBF of at least a third of the longest
  // segment), covering dyadic and non-dyadic intervals and write costs,
  // C = 0, R = 0, M = 0, tau >= W, W a multiple of tau and W not one.
  Rng rng(0xc4ec6b01u);
  const auto dyadic = [&rng](int lo, int hi) {
    return std::ldexp(1.0, lo + static_cast<int>(rng.uniform_index(
                                    static_cast<std::uint64_t>(hi - lo + 1))));
  };
  int tau_at_least_w = 0;
  int w_multiple_of_tau = 0;
  int no_failures = 0;
  for (int i = 0; i < 1000; ++i) {
    double work = rng.uniform(1.0, 5000.0);
    double interval = 0.0;
    switch (rng.uniform_index(5)) {
      case 0:  // dyadic interval
        interval = dyadic(-2, 10);
        break;
      case 1:  // W an exact multiple of a dyadic interval
        interval = dyadic(-1, 8);
        work = interval * static_cast<double>(1 + rng.uniform_index(400));
        break;
      case 2:  // one segment: tau >= W, sometimes tau == W
        interval = rng.uniform_index(4) == 0 ? work
                                             : work * rng.uniform(1.0, 3.0);
        break;
      default:  // non-dyadic, W generally not a multiple of tau
        interval = rng.uniform(0.3, 1000.0);
        break;
    }
    if (work / interval > 4000.0) {
      interval = work / 4000.0;
    }
    double ckpt = 0.0;
    switch (rng.uniform_index(3)) {
      case 0:
        break;  // C = 0
      case 1:
        ckpt = dyadic(-4, 6);
        break;
      default:
        ckpt = rng.uniform(0.01, 60.0);
        break;
    }
    const double restart =
        rng.uniform_index(4) == 0 ? 0.0 : rng.uniform(0.0, 120.0);
    double mtbf = 0.0;
    if (rng.uniform_index(5) != 0) {
      const double longest = std::min(interval, work) + ckpt;
      mtbf = longest * rng.uniform(1.0 / 3.0, 50.0);
    }
    const int trials = 1 + static_cast<int>(rng.uniform_index(6));
    tau_at_least_w += interval >= work ? 1 : 0;
    w_multiple_of_tau +=
        interval < work && std::fmod(work, interval) == 0.0 ? 1 : 0;
    no_failures += mtbf == 0.0 ? 1 : 0;
    expect_matches_reference(work, interval, ckpt, restart, mtbf, rng(),
                             trials);
  }
  // The generator really covers the corners it claims.
  EXPECT_GT(tau_at_least_w, 50);
  EXPECT_GT(w_multiple_of_tau, 50);
  EXPECT_GT(no_failures, 50);
}

// The geometries below are ones the random generator never draws; each
// exercises one case of the closed-form binade jump.

TEST(CheckpointOracle, RoundingTiesMatchThePerTrialWalk) {
  // A segment cost c half an ulp past a multiple of the ulp of one
  // binade: there round-half-even follows the last bit of t, so the
  // step t + c - t differs between neighbouring t and no single step
  // spans the binade.
  const auto step_depends_on_t = [](double c, double base) {
    const double odd = std::nextafter(base, 2.0 * base);
    return (base + c) - base != (odd + c) - odd;
  };
  // tau = 1 + 2^-41, C = 0: a tie in [4096, 8192), whose ulp is 2^-40.
  const double tau = 1.0 + std::ldexp(1.0, -41);
  ASSERT_TRUE(step_depends_on_t(tau, 4096.0));
  expect_matches_reference(10000.0, tau, 0.0, 0.5, 50.0, 11, 20);
  // tau = 0.75 + 2^-42, C = 0.25: c = 1 + 2^-42, a tie in [2048, 4096).
  const double tau_c = 0.75 + std::ldexp(1.0, -42);
  ASSERT_TRUE(step_depends_on_t(tau_c + 0.25, 2048.0));
  expect_matches_reference(10000.0, tau_c, 0.25, 1.0, 200.0, 12, 20);
}

TEST(CheckpointOracle, StepsEndingOnABinadeTopMatchThePerTrialWalk) {
  // 6361 divides 2^53 - 1, so 6361 steps of c = (2^53 - 1) / 6361 *
  // 2^-40 end exactly on 8192 - 2^-40, the largest double below 2^13:
  // the jump through [4096, 8192) divides exactly and stops on the
  // binade's top, and one ordinary step crosses into [8192, 16384).
  const double c = std::ldexp(
      static_cast<double>(((std::uint64_t{1} << 53) - 1) / 6361), -40);
  double t = 0.0;
  for (int i = 0; i < 6361; ++i) {
    t += c;
  }
  ASSERT_EQ(t, std::nextafter(8192.0, 0.0));
  for (const double ckpt : {0.0, 0.25}) {
    expect_matches_reference(10000.0, c - ckpt, ckpt, 2.0, 0.0, 13, 2);
  }
  // Dyadic tau and C adding up to a power of two: t lands exactly on
  // every 2^(e+1), with and without failures.
  expect_matches_reference(3000.0, 0.75, 0.25, 1.0, 0.0, 14, 2);
  expect_matches_reference(3000.0, 0.75, 0.25, 1.0, 400.0, 15, 20);
}

TEST(CheckpointOracle, NoFailuresAtTheSegmentLimitMatchThePerTrialWalk) {
  // M = 0 over 2^20 segments, the per-trial limit: every jump but the
  // last stops on its binade's top.
  constexpr double kSegments = 1u << 20;
  expect_matches_reference(kSegments, 1.0, 0.0, 0.0, 0.0, 16, 2);
  expect_matches_reference(kSegments, 1.0, 0.5, 0.0, 0.0, 17, 2);
  expect_matches_reference(0.3 * 1e6, 0.3, 0.05, 0.0, 0.0, 18, 1);
}

// --- injector lifetime token -------------------------------------------------

TEST(InjectorLifetime, HookFiringAfterDestructionFailsLoudly) {
  rt::NodeSim sim(arch::aurora());
  {
    fault::Injector injector(fault::FaultPlan::parse("usmfail:p=1"));
    injector.arm(sim);
  }  // injector destroyed, hook still installed
  try {
    (void)sim.memory().allocate(rt::MemKind::Device, 0, 1.0 * MB);
    FAIL() << "expected a loud lifetime error";
  } catch (const pvc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("detach"), std::string::npos)
        << e.what();
  }
}

TEST(InjectorLifetime, DetachDisarmsTheHookCleanly) {
  rt::NodeSim sim(arch::aurora());
  {
    fault::Injector injector(fault::FaultPlan::parse("usmfail:p=1"));
    injector.arm(sim);
    injector.detach(sim);
  }
  auto block = sim.memory().allocate(rt::MemKind::Device, 0, 1.0 * MB);
  EXPECT_TRUE(block.valid());
}

// --- fault.* metrics ---------------------------------------------------------

TEST(FaultMetrics, RecoveryAndCheckpointBumpTheFaultCounters) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24, /*spare_nodes=*/1);
  fault::Injector injector(
      fault::FaultPlan::parse("seed:7;nodedown:node=1,at=2us"));
  injector.arm(cluster);
  (void)fault::ft_halo_exchange(cluster, 256.0 * KB,
                                fault::RecoveryPolicy::Spare);
  (void)fault::simulate_checkpoint_restart(100.0, 10.0, 1.0, 2.0, 0.0, 1, 1);

  const auto snapshot = obs::Registry::global().snapshot();
  const auto value = [&](const char* name) {
    for (const auto& s : snapshot.samples) {
      if (s.name == name) {
        return s.value;
      }
    }
    return -1.0;
  };
  EXPECT_GE(value("fault.recoveries"), 1.0);
  EXPECT_GE(value("fault.checkpoints"), 9.0);
  EXPECT_GE(value("fabric.spare_activations"), 1.0);
  EXPECT_GE(value("fabric.flows_killed"), 1.0);
  EXPECT_GE(value("fabric.node_down_events"), 1.0);
}

}  // namespace
}  // namespace pvc
