// Multi-node fabric model: dragonfly routing, NIC injection gating and
// its serial oracle, collective algorithm switchover, multi-node rank
// binding, NIC fault handling, and the fabric.* metrics
// (docs/SCALING.md, docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/systems.hpp"
#include "comm/binding.hpp"
#include "comm/cluster.hpp"
#include "comm/collectives.hpp"
#include "core/error.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"
#include "sim/fabric.hpp"

namespace pvc {
namespace {

using comm::ClusterComm;

sim::FabricSpec aurora_fabric() {
  return sim::FabricSpec::for_node(arch::aurora());
}

// --- FabricSpec ------------------------------------------------------------

TEST(FabricSpec, AuroraKeepsEightNicsAndXeLinkAggregate) {
  const auto fabric = aurora_fabric();
  EXPECT_EQ(fabric.nic.per_node, 8);
  EXPECT_GT(fabric.nic.injection_bps, 0.0);
  EXPECT_GT(fabric.nic.message_rate_per_s, 0.0);
  // 12 subdevices each driving a remote port: aggregate is 6x the pair
  // bandwidth.
  const auto node = arch::aurora();
  EXPECT_DOUBLE_EQ(fabric.intra_node_bps,
                   node.fabric.remote_uni_bps * 6.0);
}

TEST(FabricSpec, SmallerNodesGetOneNicPerCard) {
  const auto dawn = sim::FabricSpec::for_node(arch::dawn());
  EXPECT_EQ(dawn.nic.per_node, arch::dawn().card_count);
  EXPECT_GE(sim::FabricSpec::for_node(arch::jlse_h100()).nic.per_node, 2);
}

// --- DragonflyTopology -----------------------------------------------------

TEST(DragonflyTopology, GroupsNodesByThirtyTwo) {
  const sim::DragonflyTopology topo(sim::FabricTopologySpec{}, 100);
  EXPECT_EQ(topo.nodes(), 100);
  EXPECT_EQ(topo.groups(), 4);  // ceil(100 / 32)
  EXPECT_EQ(topo.group_of(0), 0);
  EXPECT_EQ(topo.group_of(31), 0);
  EXPECT_EQ(topo.group_of(32), 1);
  EXPECT_EQ(topo.group_of(99), 3);
  EXPECT_THROW(static_cast<void>(topo.group_of(100)), Error);
  EXPECT_THROW(static_cast<void>(topo.group_of(-1)), Error);
}

TEST(DragonflyTopology, MinimalRoutesTakeAtMostOneGlobalHop) {
  const sim::DragonflyTopology topo(sim::FabricTopologySpec{}, 128);
  const auto same_node = topo.route(5, 5);
  EXPECT_TRUE(same_node.intra_node);
  EXPECT_EQ(same_node.local_hops, 0);
  EXPECT_EQ(same_node.global_hops, 0);

  const auto same_group = topo.route(0, 31);
  EXPECT_FALSE(same_group.intra_node);
  EXPECT_EQ(same_group.local_hops, 2);
  EXPECT_EQ(same_group.global_hops, 0);

  const auto cross_group = topo.route(0, 127);
  EXPECT_EQ(cross_group.local_hops, 2);
  EXPECT_EQ(cross_group.global_hops, 1);
  EXPECT_EQ(cross_group.via_group, -1);
  EXPECT_GT(cross_group.latency_s, same_group.latency_s);
}

TEST(DragonflyTopology, ValiantDetourUsesTwoGlobalHopsThroughAThirdGroup) {
  const sim::DragonflyTopology topo(sim::FabricTopologySpec{}, 128);
  const auto detour = topo.route(0, 127, /*nonminimal=*/true);
  EXPECT_EQ(detour.global_hops, 2);
  EXPECT_NE(detour.via_group, topo.group_of(0));
  EXPECT_NE(detour.via_group, topo.group_of(127));
  EXPECT_GE(detour.via_group, 0);
  // With fewer than three groups there is no detour to take.
  const sim::DragonflyTopology two_groups(sim::FabricTopologySpec{}, 64);
  EXPECT_EQ(two_groups.valiant_group(0, 1), -1);
  EXPECT_EQ(two_groups.route(0, 63, true).global_hops, 1);
  // Same-group pairs never cross a global link, detour or not.
  EXPECT_EQ(topo.route(0, 31, true).global_hops, 0);
}

// --- multi-node binding ----------------------------------------------------

TEST(MultinodeBinding, FillsNodesInOrderReusingTheSingleNodePolicy) {
  const auto node = arch::aurora();
  const auto bindings = comm::bind_ranks_multinode(node, 8, 30);
  ASSERT_EQ(bindings.size(), 30u);
  EXPECT_EQ(comm::nodes_for_ranks(node, 30), 3);

  const auto single = comm::bind_ranks(node, 12);
  for (const auto& g : bindings) {
    EXPECT_EQ(g.node, g.rank / 12);
    EXPECT_EQ(g.local_rank, g.rank % 12);
    EXPECT_EQ(g.nic, g.local_rank % 8);
    const auto& ref = single[static_cast<std::size_t>(
        std::min(g.local_rank, 11))];
    if (g.local_rank < 12) {
      EXPECT_EQ(g.card, ref.card);
      EXPECT_EQ(g.core, ref.core);
      EXPECT_EQ(g.stack, ref.device % node.card.subdevice_count);
    }
  }
  EXPECT_THROW(static_cast<void>(comm::bind_ranks_multinode(node, 0, 4)),
               Error);
  EXPECT_THROW(static_cast<void>(comm::bind_ranks_multinode(node, 8, 0)),
               Error);
}

// --- analytic model --------------------------------------------------------

TEST(FabricModel, CollectiveSwitchoverBoundaries) {
  const auto fabric = aurora_fabric();
  // Small vectors on power-of-two rank counts: recursive doubling.
  EXPECT_EQ(sim::choose_collective_algo(fabric, {1024, 12}, 8.0),
            sim::CollectiveAlgo::RecursiveDoubling);
  // Small vectors on non-power-of-two counts: binomial tree beats the
  // 2(p-1)-round ring.
  EXPECT_EQ(sim::choose_collective_algo(fabric, {1020, 12}, 8.0),
            sim::CollectiveAlgo::BinomialTree);
  // Large vectors on modest rank counts: the bandwidth-optimal ring.
  EXPECT_EQ(sim::choose_collective_algo(fabric, {64, 12}, 64.0e6),
            sim::CollectiveAlgo::Ring);
  // The chosen algorithm is never costlier than the alternatives.
  for (const double bytes : {8.0, 65536.0, 16.0e6}) {
    for (const int p : {16, 60, 256, 4096}) {
      const sim::ClusterShape shape{p, 12};
      const auto algo = sim::choose_collective_algo(fabric, shape, bytes);
      const double best =
          sim::allreduce_model_seconds(fabric, shape, bytes, algo);
      EXPECT_LE(best, sim::allreduce_model_seconds(fabric, shape, bytes,
                                                   sim::CollectiveAlgo::Ring));
      EXPECT_LE(best,
                sim::allreduce_model_seconds(fabric, shape, bytes,
                                             sim::CollectiveAlgo::BinomialTree));
    }
  }
}

TEST(FabricModel, RecursiveDoublingRequiresPowerOfTwoRanks) {
  const auto fabric = aurora_fabric();
  EXPECT_THROW(static_cast<void>(sim::allreduce_model_seconds(
                   fabric, {12, 12}, 1024.0,
                   sim::CollectiveAlgo::RecursiveDoubling)),
               Error);
  EXPECT_GT(sim::allreduce_model_seconds(
                fabric, {16, 12}, 1024.0,
                sim::CollectiveAlgo::RecursiveDoubling),
            0.0);
}

TEST(FabricModel, MessageRateCeilingSharedByNicSiblings) {
  const auto fabric = aurora_fabric();
  // Tiny messages: the 20 Mmsg/s NIC ceiling binds, shared 12/8 ways.
  const double solo = sim::message_rate_model_per_rank(fabric, 1, 8.0);
  EXPECT_DOUBLE_EQ(solo, fabric.nic.message_rate_per_s);
  const double full = sim::message_rate_model_per_rank(fabric, 12, 8.0);
  EXPECT_DOUBLE_EQ(full, fabric.nic.message_rate_per_s / 1.5);
  // Large messages: the injection bandwidth binds instead.
  const double big = sim::message_rate_model_per_rank(fabric, 1, 1.0e6);
  EXPECT_DOUBLE_EQ(big, fabric.nic.injection_bps / 1.0e6);
  EXPECT_LT(big, solo);
}

// --- ClusterComm discrete-event layer --------------------------------------

TEST(ClusterComm, RoutesIntraNodeTrafficPastTheNics) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  EXPECT_EQ(cluster.size(), 24);
  EXPECT_EQ(cluster.node_count(), 2);
  EXPECT_TRUE(cluster.route_links(0, 0).empty());
  EXPECT_EQ(cluster.route_links(0, 5).size(), 1u);   // intra link only
  EXPECT_EQ(cluster.route_links(0, 12).size(), 4u);  // egress/up/down/ingress
  const auto result = cluster.exchange(std::vector<ClusterComm::Message>{
      {0, 5, 1024.0}, {0, 12, 1024.0}});
  ASSERT_EQ(result.completion_s.size(), 2u);
  EXPECT_GT(result.completion_s[0], 0.0);
  EXPECT_GT(result.completion_s[1], 0.0);
  // Only the inter-node message entered a NIC queue.
  EXPECT_EQ(cluster.injection_log().size(), 1u);
}

TEST(ClusterComm, NicMessageRateGateSerializesInjection) {
  const auto fabric = aurora_fabric();
  ClusterComm cluster(arch::aurora(), fabric, 24);
  // 64 tiny messages from rank 0 (one NIC) to the second node.
  std::vector<ClusterComm::Message> burst(64, {0, 12, 8.0});
  const auto result = cluster.exchange(burst);
  const auto& log = cluster.injection_log();
  ASSERT_EQ(log.size(), 64u);
  const double gap = sim::nic_message_gap_s(fabric);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].nic, 0);
    if (i > 0) {
      // FIFO: each injection starts exactly one message gap after its
      // predecessor (bit-exact — this is the cursor's own arithmetic).
      EXPECT_EQ(log[i].start_s, log[i - 1].start_s + gap);
    }
  }
  EXPECT_GE(result.finish, 63.0 * gap);
}

TEST(ClusterComm, InjectionScheduleMatchesSerialOracle) {
  const auto fabric = aurora_fabric();
  ClusterComm cluster(arch::aurora(), fabric, 36);
  // Mixed burst spanning three nodes and several NICs.
  std::vector<ClusterComm::Message> messages;
  for (int r = 0; r < 36; ++r) {
    messages.push_back({r, (r + 12) % 36, 256.0});
    messages.push_back({r, (r + 13) % 36, 8.0});
  }
  static_cast<void>(cluster.exchange(messages));
  const auto& log = cluster.injection_log();
  ASSERT_FALSE(log.empty());
  const auto reference =
      ClusterComm::reference_injection_schedule(fabric, log);
  ASSERT_EQ(reference.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    // Bit-equality, same contract as FlowNetwork::reference_rates().
    EXPECT_EQ(log[i].start_s, reference[i]) << "injection " << i;
  }
}

TEST(ClusterComm, RepeatedRunsAreBitIdentical) {
  const auto run = [] {
    ClusterComm cluster(arch::aurora(), aurora_fabric(), 48);
    return comm::cluster_halo_exchange(cluster, 256.0 * 1024.0);
  };
  const sim::Time a = run();
  const sim::Time b = run();
  EXPECT_EQ(a, b);
}

TEST(ClusterComm, HaloMatchesAnalyticModelAtOverlapPoints) {
  const auto node = arch::aurora();
  const auto fabric = aurora_fabric();
  for (const int ranks : {12, 24, 48}) {
    ClusterComm cluster(node, fabric, ranks);
    const sim::Time des = comm::cluster_halo_exchange(cluster, 256.0 * 1024.0);
    const double model = sim::halo_model_seconds(
        fabric, {ranks, std::min(ranks, 12)}, 256.0 * 1024.0);
    EXPECT_NEAR(des, model, 1e-9 + 1e-6 * model) << ranks << " ranks";
  }
}

TEST(ClusterComm, DesConfirmsSwitchoverOrdering) {
  // The discrete-event layer agrees with the model's switchover: for a
  // tiny vector, log2(p) recursive-doubling rounds beat 2(p-1) ring
  // rounds; for a large vector the ring's small blocks win.
  const auto node = arch::aurora();
  const auto fabric = aurora_fabric();
  const auto timed = [&](double bytes, sim::CollectiveAlgo algo) {
    ClusterComm cluster(node, fabric, 16);
    return comm::cluster_allreduce(cluster, bytes, algo);
  };
  EXPECT_LT(timed(8.0, sim::CollectiveAlgo::RecursiveDoubling),
            timed(8.0, sim::CollectiveAlgo::Ring));
  EXPECT_LT(timed(64.0e6, sim::CollectiveAlgo::Ring),
            timed(64.0e6, sim::CollectiveAlgo::RecursiveDoubling));
}

TEST(ClusterComm, RecursiveDoublingRejectsRaggedRankCounts) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 12);
  try {
    static_cast<void>(comm::cluster_allreduce(
        cluster, 8.0, sim::CollectiveAlgo::RecursiveDoubling));
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
}

// --- NIC faults ------------------------------------------------------------

TEST(ClusterCommFaults, DownedNicFailsOverToNextHealthySibling) {
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  const auto healthy_route = cluster.route_links(0, 12);
  cluster.set_nic_down(0, 0, true);
  EXPECT_TRUE(cluster.nic_down(0, 0));
  const auto failover_route = cluster.route_links(0, 12);
  ASSERT_EQ(healthy_route.size(), failover_route.size());
  EXPECT_NE(healthy_route.front(), failover_route.front());

  static_cast<void>(cluster.exchange(
      std::vector<ClusterComm::Message>{{0, 12, 1024.0}}));
  ASSERT_EQ(cluster.injection_log().size(), 1u);
  EXPECT_EQ(cluster.injection_log().front().nic, 1);
  EXPECT_EQ(registry.snapshot().count("fabric.nic.failovers"), 1u);

  cluster.set_nic_down(0, 0, false);
  static_cast<void>(cluster.exchange(
      std::vector<ClusterComm::Message>{{0, 12, 1024.0}}));
  EXPECT_EQ(cluster.injection_log().front().nic, 0);
}

TEST(ClusterCommFaults, AllNicsDownRaisesLinkDown) {
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  for (int nic = 0; nic < 8; ++nic) {
    cluster.set_nic_down(0, nic, true);
  }
  try {
    static_cast<void>(cluster.exchange(
        std::vector<ClusterComm::Message>{{0, 12, 1024.0}}));
    FAIL() << "expected LinkDown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::LinkDown);
  }
  // Intra-node traffic is unaffected — it never touches a NIC.
  static_cast<void>(cluster.exchange(
      std::vector<ClusterComm::Message>{{0, 5, 1024.0}}));
}

TEST(ClusterCommFaults, CollectiveInProgressHitsAllNicsDownPromptly) {
  // Chaos downs every NIC of node 1 two microseconds into a multi-round
  // ring allreduce: the rounds posted after the window opens find no
  // healthy NIC and the collective must raise a typed LinkDown right
  // away — no hang, no silent completion.
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  std::string spec;
  for (int nic = 0; nic < 8; ++nic) {
    spec += (nic ? ";" : "") + std::string("nicdown:node=1,nic=") +
            std::to_string(nic) + ",at=2us";
  }
  fault::Injector injector(fault::FaultPlan::parse(spec));
  injector.arm(cluster);
  try {
    static_cast<void>(
        cluster_allreduce(cluster, 64.0 * 1024.0, sim::CollectiveAlgo::Ring));
    FAIL() << "expected LinkDown mid-collective";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::LinkDown);
    EXPECT_NE(std::string(e.what()).find("NIC"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterCommFaults, DegradedNicSlowsItsFlows) {
  const auto run = [](double factor) {
    ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
    if (factor < 1.0) {
      cluster.set_nic_degradation(0, 0, factor);
    }
    const auto result = cluster.exchange(
        std::vector<ClusterComm::Message>{{0, 12, 8.0e6}});
    return result.finish;
  };
  EXPECT_GT(run(0.25), run(1.0));
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  EXPECT_THROW(cluster.set_nic_degradation(0, 0, 0.0), Error);
  EXPECT_THROW(cluster.set_nic_degradation(0, 0, 1.5), Error);
}

TEST(ClusterCommFaults, DegradedGlobalLinkTriggersValiantDetour) {
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  // 3 groups (96 nodes = 1152 ranks is too big; use 32 nodes/group with
  // 65 nodes => 3 groups at 12 ranks/node = 780 ranks — still big; use
  // a narrow fabric instead).
  auto fabric = aurora_fabric();
  fabric.topo.nodes_per_group = 1;  // every node its own group
  ClusterComm cluster(arch::aurora(), fabric, 36);  // 3 nodes, 3 groups
  EXPECT_EQ(cluster.topology().groups(), 3);
  const auto minimal = cluster.route_links(0, 12);
  cluster.set_global_link_degradation(0, 1, 0.25);  // below the threshold
  const auto detour = cluster.route_links(0, 12);
  EXPECT_EQ(detour.size(), minimal.size() + 1);  // two global hops now

  static_cast<void>(cluster.exchange(
      std::vector<ClusterComm::Message>{{0, 12, 1024.0}, {0, 24, 1024.0}}));
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.count("fabric.routes.nonminimal"), 1u);  // only 0->12
  EXPECT_EQ(snap.count("fabric.routes.minimal"), 1u);  // 0->24 untouched
}

TEST(ClusterCommFaults, InjectorArmsNicClausesOnTheClusterEngine) {
  const auto plan = fault::FaultPlan::parse(
      "nicdown:node=0,nic=0,at=0;nicdegrade:node=1,nic=2,factor=0.5,at=0,"
      "for=1ms");
  ASSERT_EQ(plan.nic_downs.size(), 1u);
  ASSERT_EQ(plan.nic_degradations.size(), 1u);
  EXPECT_FALSE(plan.empty());
  EXPECT_NE(plan.summary().find("nicdown node 0 nic 0"), std::string::npos);
  EXPECT_NE(plan.summary().find("nicdegrade node 1 nic 2"),
            std::string::npos);

  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  fault::Injector injector(plan);
  injector.arm(cluster);
  EXPECT_EQ(injector.events_armed(), 3);  // down + degrade on/off
  // NIC selection happens at post time, so at=0 clauses apply during
  // arm() itself — the very first exchange must already see the fault.
  static_cast<void>(cluster.exchange(
      std::vector<ClusterComm::Message>{{0, 12, 1024.0}}));
  ASSERT_EQ(cluster.injection_log().size(), 1u);
  EXPECT_EQ(cluster.injection_log().front().nic, 1);  // failed over

  // Events aimed beyond this cluster's shape are skipped, not fatal.
  fault::Injector oversized(fault::FaultPlan::parse(
      "nicdown:node=99,nic=0,at=0;nicdegrade:node=0,nic=99,factor=0.5,at=0"));
  oversized.arm(cluster);
  EXPECT_EQ(oversized.events_armed(), 0);
}

TEST(ClusterCommFaults, NicClauseParsingRejectsMalformedInput) {
  EXPECT_THROW(static_cast<void>(fault::FaultPlan::parse("nicdown:node=0")),
               Error);  // missing nic
  EXPECT_THROW(static_cast<void>(
                   fault::FaultPlan::parse("nicdown:node=-1,nic=0")),
               Error);
  EXPECT_THROW(static_cast<void>(fault::FaultPlan::parse(
                   "nicdegrade:node=0,nic=0,factor=1.5")),
               Error);
  EXPECT_THROW(static_cast<void>(fault::FaultPlan::parse(
                   "nicdown:node=0,nic=0,bogus=1")),
               Error);
}

// --- metrics ---------------------------------------------------------------

TEST(FabricMetrics, ExchangeBumpsTheFabricCounters) {
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  ClusterComm cluster(arch::aurora(), aurora_fabric(), 24);
  static_cast<void>(cluster.exchange(std::vector<ClusterComm::Message>{
      {0, 5, 1024.0}, {0, 12, 2048.0}, {12, 0, 512.0}}));
  EXPECT_EQ(cluster.messages_delivered(), 3u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.count("fabric.messages"), 3u);
  EXPECT_EQ(snap.value("fabric.bytes"), 1024.0 + 2048.0 + 512.0);
  EXPECT_EQ(snap.count("fabric.routes.intra_node"), 1u);
  EXPECT_EQ(snap.count("fabric.routes.minimal"), 2u);
  EXPECT_EQ(snap.count("fabric.hops.local"), 4u);  // 2 per inter-node msg
  EXPECT_EQ(snap.count("fabric.hops.global"), 0u);  // same group
}

// --- comm-layer switchover -------------------------------------------------

TEST(AllreduceSwitchover, AlgorithmSelectionBoundaries) {
  using comm::AllreduceAlgorithm;
  EXPECT_EQ(comm::allreduce_algorithm_for(8.0, 8),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(comm::allreduce_algorithm_for(64.0 * 1024.0, 8),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(comm::allreduce_algorithm_for(64.0 * 1024.0 + 1.0, 8),
            AllreduceAlgorithm::Ring);
  EXPECT_EQ(comm::allreduce_algorithm_for(8.0, 12),
            AllreduceAlgorithm::ReduceBroadcast);
  EXPECT_EQ(comm::allreduce_algorithm_for(8.0 * 1024.0 + 1.0, 12),
            AllreduceAlgorithm::Ring);
  EXPECT_EQ(comm::allreduce_algorithm_for(1.0e9, 8),
            AllreduceAlgorithm::Ring);
  EXPECT_EQ(comm::allreduce_algorithm_for(8.0, 1),
            AllreduceAlgorithm::Ring);
  EXPECT_THROW(static_cast<void>(comm::allreduce_algorithm_for(8.0, 0)),
               Error);
  EXPECT_STREQ(comm::allreduce_algorithm_name(AllreduceAlgorithm::Auto),
               "auto");
  EXPECT_STREQ(
      comm::allreduce_algorithm_name(AllreduceAlgorithm::RecursiveDoubling),
      "recursive-doubling");
}

TEST(AllreduceSwitchover, AllAlgorithmsProduceIdenticalSums) {
  // Integer-valued payloads make every combine order exact, so the
  // three algorithms must agree bit for bit.
  const auto node = arch::aurora();
  const auto run = [&](comm::AllreduceAlgorithm algo) {
    rt::NodeSim sim(node);
    // Recursive doubling needs a power-of-two count: 8 of the 12 stacks.
    comm::Communicator c(sim, std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<std::vector<double>> data(8, std::vector<double>(33));
    for (int r = 0; r < 8; ++r) {
      for (std::size_t i = 0; i < data[r].size(); ++i) {
        data[static_cast<std::size_t>(r)][i] =
            static_cast<double>(r * 100 + static_cast<int>(i));
      }
    }
    static_cast<void>(comm::allreduce_sum(c, data, 8.0, algo));
    return data;
  };
  const auto ring = run(comm::AllreduceAlgorithm::Ring);
  const auto doubling = run(comm::AllreduceAlgorithm::RecursiveDoubling);
  const auto tree = run(comm::AllreduceAlgorithm::ReduceBroadcast);
  const auto automatic = run(comm::AllreduceAlgorithm::Auto);
  EXPECT_EQ(ring, doubling);
  EXPECT_EQ(ring, tree);
  EXPECT_EQ(ring, automatic);
}

TEST(AllreduceSwitchover, RecursiveDoublingThrowsOnRaggedCommunicator) {
  rt::NodeSim sim(arch::aurora());
  comm::Communicator c = comm::Communicator::explicit_scaling(sim);
  std::vector<std::vector<double>> data(12, std::vector<double>(4, 1.0));
  try {
    static_cast<void>(comm::allreduce_sum(
        c, data, 8.0, comm::AllreduceAlgorithm::RecursiveDoubling));
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
  // Auto never picks it for 12 ranks, so this succeeds.
  static_cast<void>(
      comm::allreduce_sum(c, data, 8.0, comm::AllreduceAlgorithm::Auto));
}

}  // namespace
}  // namespace pvc
