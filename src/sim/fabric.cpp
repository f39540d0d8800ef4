#include "sim/fabric.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace pvc::sim {

FabricSpec FabricSpec::slingshot() {
  FabricSpec spec;
  spec.name = "Slingshot";
  // Defaults in the struct declarations: 8x 25 GB/s NICs, 20 M msg/s
  // each, 32-node groups.  Intra-node capacity is overridden by
  // for_node(); standalone use gets an Aurora-like Xe-Link aggregate.
  spec.intra_node_bps = 6 * 15.0e9;
  return spec;
}

FabricSpec FabricSpec::for_node(const arch::NodeSpec& node) {
  // The node's own fabric.technology names the intra-node links
  // (Xe-Link, NVLink...); the cluster interconnect keeps the Slingshot
  // name — every modelled system is benchmarked as if deployed on an
  // Aurora/Dawn-style Slingshot dragonfly.
  FabricSpec spec = slingshot();
  spec.name = "Slingshot (" + node.fabric.technology + " intra-node)";
  if (node.system_name != "Aurora") {
    // Smaller nodes carry one NIC per card with the same per-NIC
    // limits (Dawn: quad-injection Slingshot; the JLSE references get
    // an equivalent-bandwidth stand-in).
    spec.nic.per_node = std::max(2, node.card_count);
  }
  // Intra-node aggregate: every subdevice driving its remote fabric
  // port at once, degraded to the node's own pair bandwidth model.
  const double per_pair = node.fabric.remote_uni_bps;
  spec.intra_node_bps =
      std::max(per_pair, per_pair * node.total_subdevices() / 2.0);
  spec.intra_node_latency_s = node.fabric.latency_s;
  return spec;
}

DragonflyTopology::DragonflyTopology(FabricTopologySpec spec, int nodes)
    : spec_(spec), nodes_(nodes) {
  ensure(nodes >= 1, ErrorCode::InvalidArgument,
         "DragonflyTopology: need at least one node");
  ensure(spec_.nodes_per_group >= 1, ErrorCode::InvalidArgument,
         "DragonflyTopology: nodes_per_group must be >= 1");
  groups_ = (nodes_ + spec_.nodes_per_group - 1) / spec_.nodes_per_group;
}

int DragonflyTopology::group_of(int node) const {
  ensure(node >= 0 && node < nodes_, ErrorCode::InvalidArgument, [&] {
    return "DragonflyTopology::group_of: node " + std::to_string(node) +
           " out of range [0, " + std::to_string(nodes_) + ")";
  });
  return node / spec_.nodes_per_group;
}

FabricRoute DragonflyTopology::route(int src_node, int dst_node) const {
  const int gs = group_of(src_node);
  const int gd = group_of(dst_node);
  FabricRoute r;
  if (src_node == dst_node) {
    r.intra_node = true;
    return r;
  }
  // Uplink out of the source node, downlink into the destination node.
  r.local_hops = 2;
  r.global_hops = gs != gd ? 1 : 0;
  r.latency_s = r.local_hops * spec_.local_hop_latency_s +
                r.global_hops * spec_.global_hop_latency_s;
  return r;
}

const char* collective_algo_name(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::Ring:
      return "ring";
    case CollectiveAlgo::RecursiveDoubling:
      return "recursive-doubling";
    case CollectiveAlgo::BinomialTree:
      return "binomial-tree";
  }
  return "?";
}

double inter_node_alpha_s(const FabricSpec& fabric) {
  return 2.0 * fabric.nic.latency_s + 2.0 * fabric.topo.local_hop_latency_s +
         fabric.topo.global_hop_latency_s;
}

double nic_message_gap_s(const FabricSpec& fabric) {
  ensure(fabric.nic.message_rate_per_s > 0.0, ErrorCode::InvalidArgument,
         "FabricSpec: NIC message rate must be positive");
  return 1.0 / fabric.nic.message_rate_per_s;
}

namespace {

/// Ranks sharing one NIC under the round-robin local_rank % per_node
/// assignment (comm::bind_ranks_multinode).
[[nodiscard]] double ranks_per_nic(const FabricSpec& fabric,
                                   int ranks_per_node) {
  return std::max(1.0, static_cast<double>(ranks_per_node) /
                           static_cast<double>(fabric.nic.per_node));
}

/// Per-rank inter-node bandwidth: a full NIC when a rank has one to
/// itself, the fair share otherwise.
[[nodiscard]] double inter_node_bw_per_rank(const FabricSpec& fabric,
                                            int ranks_per_node) {
  return fabric.nic.injection_bps / ranks_per_nic(fabric, ranks_per_node);
}

/// Cost of one communication round in which every rank sends `bytes`
/// to one partner `inter_node` hops away.
[[nodiscard]] double round_seconds(const FabricSpec& fabric,
                                   const ClusterShape& shape, double bytes,
                                   bool inter_node) {
  if (!inter_node) {
    return fabric.intra_node_latency_s + bytes / fabric.intra_node_bps;
  }
  // Every rank mapped onto the NIC injects one message this round; the
  // rank finishing the round is gated behind its NIC siblings.
  const double gate =
      ranks_per_nic(fabric, shape.ranks_per_node) * nic_message_gap_s(fabric);
  return inter_node_alpha_s(fabric) + gate +
         bytes / inter_node_bw_per_rank(fabric, shape.ranks_per_node);
}

[[nodiscard]] int ceil_log2(int p) {
  int rounds = 0;
  int reach = 1;
  while (reach < p) {
    reach *= 2;
    ++rounds;
  }
  return rounds;
}

[[nodiscard]] bool is_pow2(int p) { return p >= 1 && (p & (p - 1)) == 0; }

}  // namespace

double allreduce_model_seconds(const FabricSpec& fabric,
                               const ClusterShape& shape, double bytes,
                               CollectiveAlgo algo) {
  ensure(shape.ranks >= 1 && shape.ranks_per_node >= 1,
         ErrorCode::InvalidArgument,
         "allreduce_model_seconds: ranks and ranks_per_node must be >= 1");
  ensure(bytes >= 0.0, ErrorCode::InvalidArgument,
         "allreduce_model_seconds: negative byte count");
  const int p = shape.ranks;
  if (p == 1) {
    return 0.0;
  }
  const bool multi_node = p > shape.ranks_per_node;
  switch (algo) {
    case CollectiveAlgo::Ring: {
      // 2(p-1) steps of one bytes/p block to the ring neighbour.  With
      // more than one node the node-boundary ranks set the pace: every
      // step crosses the fabric for them.
      const double block = bytes / static_cast<double>(p);
      return 2.0 * (p - 1) * round_seconds(fabric, shape, block, multi_node);
    }
    case CollectiveAlgo::RecursiveDoubling: {
      ensure(is_pow2(p),
             ErrorCode::InvalidArgument,
             "allreduce_model_seconds: recursive doubling needs a "
             "power-of-two rank count");
      // log2(p) rounds of the full vector; rounds whose stride stays
      // inside a node are intra-node, the rest cross the fabric.
      double total = 0.0;
      for (int stride = 1; stride < p; stride *= 2) {
        const bool inter = stride >= shape.ranks_per_node;
        total += round_seconds(fabric, shape, bytes, inter);
      }
      return total;
    }
    case CollectiveAlgo::BinomialTree: {
      // Reduce to root then broadcast: 2 ceil(log2 p) rounds of the
      // full vector along the critical path.  The high-stride rounds
      // cross the fabric whenever the cluster spans nodes.
      const int rounds = ceil_log2(p);
      double total = 0.0;
      for (int k = 0; k < rounds; ++k) {
        const bool inter = multi_node && (1 << k) >= shape.ranks_per_node;
        total += 2.0 * round_seconds(fabric, shape, bytes, inter);
      }
      return total;
    }
  }
  return 0.0;
}

CollectiveAlgo choose_collective_algo(const FabricSpec& fabric,
                                      const ClusterShape& shape,
                                      double bytes) {
  CollectiveAlgo best = CollectiveAlgo::Ring;
  double best_t = allreduce_model_seconds(fabric, shape, bytes, best);
  const auto consider = [&](CollectiveAlgo algo) {
    const double t = allreduce_model_seconds(fabric, shape, bytes, algo);
    if (t < best_t) {
      best = algo;
      best_t = t;
    }
  };
  if (is_pow2(shape.ranks)) {
    consider(CollectiveAlgo::RecursiveDoubling);
  }
  consider(CollectiveAlgo::BinomialTree);
  return best;
}

double halo_model_seconds(const FabricSpec& fabric, const ClusterShape& shape,
                          double halo_bytes) {
  ensure(shape.ranks >= 1 && shape.ranks_per_node >= 1,
         ErrorCode::InvalidArgument,
         "halo_model_seconds: ranks and ranks_per_node must be >= 1");
  if (shape.ranks == 1) {
    return 0.0;
  }
  // Two messages per rank (up and down neighbours).  On one node the
  // exchange shares the intra-node aggregate; across nodes the slower
  // of two concurrent components paces the exchange: each node's
  // 2(ranks_per_node - 1) interior messages sharing the intra-node
  // aggregate, and the boundary ranks' two NIC messages each.  The
  // discrete-event ClusterComm reproduces both (FabricModel sim-vs-
  // model tests).
  if (shape.ranks <= shape.ranks_per_node) {
    const double concurrent =
        2.0 * shape.ranks * halo_bytes / fabric.intra_node_bps;
    return fabric.intra_node_latency_s + concurrent;
  }
  const double interior =
      fabric.intra_node_latency_s +
      2.0 * (shape.ranks_per_node - 1) * halo_bytes / fabric.intra_node_bps;
  const double gate = 2.0 * nic_message_gap_s(fabric);
  const double boundary = inter_node_alpha_s(fabric) + gate +
                          2.0 * halo_bytes / fabric.nic.injection_bps;
  return std::max(interior, boundary);
}

double message_rate_model_per_rank(const FabricSpec& fabric,
                                   int ranks_per_node, double message_bytes) {
  ensure(ranks_per_node >= 1, ErrorCode::InvalidArgument,
         "message_rate_model_per_rank: ranks_per_node must be >= 1");
  ensure(message_bytes >= 0.0, ErrorCode::InvalidArgument,
         "message_rate_model_per_rank: negative message size");
  const double share = ranks_per_nic(fabric, ranks_per_node);
  const double rate_limited = fabric.nic.message_rate_per_s / share;
  if (message_bytes <= 0.0) {
    return rate_limited;
  }
  const double bw_limited =
      fabric.nic.injection_bps / share / message_bytes;
  return std::min(rate_limited, bw_limited);
}

}  // namespace pvc::sim
