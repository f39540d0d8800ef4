#pragma once
// Node-interconnect fabric model (docs/SCALING.md).
//
// The source paper stops at one node; this layer models what happens
// when Aurora-style nodes are stitched into a Slingshot-like fabric, so
// the scaling behaviours reported in "Scaling MPI Applications on
// Aurora" (PAPERS.md) — per-NIC message-rate ceilings, collective
// algorithm switchover by message size and rank count, halo-exchange
// scaling from one node to thousands of ranks — have a mechanism to
// emerge from rather than a table to be quoted from.
//
// Three pieces live here:
//  * NicSpec / FabricTopologySpec / FabricSpec — the calibrated limits:
//    per-NIC injection bandwidth and message rate, dragonfly-ish group
//    topology link capacities and hop latencies;
//  * DragonflyTopology — node→group placement and minimal route
//    decomposition (intra-node, intra-group, inter-group with one global
//    hop);
//  * the analytic collective cost model (alpha-beta with NIC message
//    gating) used by bench/scaling_multinode at rank counts where
//    discrete-event simulation of every message would be wasteful.
//
// The discrete-event counterpart — per-message flows through NIC queues
// over an Engine/FlowNetwork — is comm::ClusterComm
// (src/comm/cluster.hpp); the model here is validated against it at
// small rank counts (tests/test_fabric.cpp).

#include <string>
#include <vector>

#include "arch/gpu_spec.hpp"

namespace pvc::sim {

/// Limits of one Slingshot-like NIC (HPE Cassini class).  Every value
/// is per NIC, per direction.
struct NicSpec {
  int per_node = 8;                  ///< NICs per node (Aurora: 8)
  double injection_bps = 25.0e9;     ///< injection bandwidth (200 Gb/s)
  double message_rate_per_s = 20e6;  ///< small-message injection ceiling
  double latency_s = 1.0e-6;         ///< NIC traversal latency
};

/// Dragonfly-ish group topology at node granularity: nodes connect to a
/// non-blocking group crossbar through a router uplink; group pairs are
/// joined by one aggregated global link each (all-to-all between
/// groups, the dragonfly invariant).
struct FabricTopologySpec {
  int nodes_per_group = 32;
  double local_link_bps = 200.0e9;   ///< node <-> group crossbar, per node
  double global_link_bps = 800.0e9;  ///< one group pair, aggregated
  double local_hop_latency_s = 0.3e-6;
  double global_hop_latency_s = 1.2e-6;
};

/// Full fabric description for one cluster.
struct FabricSpec {
  std::string name;
  NicSpec nic;
  FabricTopologySpec topo;
  /// Aggregate intra-node path used when both ranks share a node
  /// (Xe-Link fabric abstracted to one capacity; the per-pair detail
  /// lives in NodeSim for single-node runs).
  double intra_node_bps = 0.0;
  double intra_node_latency_s = 8e-6;

  /// Aurora-style Slingshot defaults: 8x 200 Gb/s NICs per node.
  [[nodiscard]] static FabricSpec slingshot();

  /// Fabric sized for `node`: Aurora keeps the 8-NIC Slingshot shape,
  /// smaller nodes (Dawn, the JLSE references) get one NIC per card
  /// with the same per-NIC limits; intra-node capacity comes from the
  /// node's own fabric spec.
  [[nodiscard]] static FabricSpec for_node(const arch::NodeSpec& node);
};

/// One node pair's route through the fabric.
struct FabricRoute {
  bool intra_node = false;
  int local_hops = 0;   ///< router uplink/downlink traversals
  int global_hops = 0;  ///< inter-group link traversals (0 or 1)
  double latency_s = 0.0;
};

/// Node→group placement plus minimal route decomposition.
class DragonflyTopology {
 public:
  DragonflyTopology(FabricTopologySpec spec, int nodes);

  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  [[nodiscard]] int groups() const noexcept { return groups_; }
  [[nodiscard]] const FabricTopologySpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] int group_of(int node) const;

  /// Minimal route for a node pair: at most one global hop (the
  /// dragonfly invariant).  Same-node pairs are intra-node.
  [[nodiscard]] FabricRoute route(int src_node, int dst_node) const;

 private:
  FabricTopologySpec spec_;
  int nodes_ = 0;
  int groups_ = 0;
};

// --- analytic collective cost model (docs/SCALING.md) ----------------------

/// Collective algorithms the switchover chooses between.
enum class CollectiveAlgo { Ring, RecursiveDoubling, BinomialTree };

[[nodiscard]] const char* collective_algo_name(CollectiveAlgo algo);

/// Rank layout of a model evaluation.
struct ClusterShape {
  int ranks = 0;
  int ranks_per_node = 0;

  [[nodiscard]] int nodes() const {
    return (ranks + ranks_per_node - 1) / ranks_per_node;
  }
};

/// Effective per-message latency (alpha) of an average inter-node
/// message: NIC traversal both ends, two local hops, one global hop.
[[nodiscard]] double inter_node_alpha_s(const FabricSpec& fabric);

/// Per-NIC injection-gate cost of one message (1 / message rate).
[[nodiscard]] double nic_message_gap_s(const FabricSpec& fabric);

/// Modelled time of an allreduce of `bytes` (per-rank vector size in
/// bytes) with a specific algorithm.  Rounds whose partner stride stays
/// inside a node are priced at intra-node latency/bandwidth; inter-node
/// rounds pay the NIC alpha, the per-NIC injection share of the ranks
/// mapped onto one NIC, and the message-rate gate.
[[nodiscard]] double allreduce_model_seconds(const FabricSpec& fabric,
                                             const ClusterShape& shape,
                                             double bytes,
                                             CollectiveAlgo algo);

/// The switchover: cheapest algorithm for (bytes, shape).  Recursive
/// doubling requires a power-of-two rank count; other shapes choose
/// between ring and binomial tree.
[[nodiscard]] CollectiveAlgo choose_collective_algo(const FabricSpec& fabric,
                                                    const ClusterShape& shape,
                                                    double bytes);

/// Modelled time of a 1-D ring halo exchange (`halo_bytes` to each of
/// two neighbours per rank).  With more than one node the node-boundary
/// ranks dominate: NIC alpha + injection share + message gate.
[[nodiscard]] double halo_model_seconds(const FabricSpec& fabric,
                                        const ClusterShape& shape,
                                        double halo_bytes);

/// Achievable per-rank message rate for back-to-back messages of
/// `message_bytes`: the per-NIC message-rate ceiling shared by the
/// ranks mapped onto one NIC, or the injection-bandwidth limit,
/// whichever binds (messages/s).
[[nodiscard]] double message_rate_model_per_rank(const FabricSpec& fabric,
                                                 int ranks_per_node,
                                                 double message_bytes);

}  // namespace pvc::sim
