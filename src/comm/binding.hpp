#pragma once
// Rank-to-CPU-core binding (paper §IV-A) and multi-node placement.
//
// "Binding the MPI ranks to the CPU closest to the GPU ensures data
// transfer doesn't happen between CPU sockets.  For example, Aurora uses
// CPU cores 0 and 52 (the first core from each CPU socket) for OS kernel
// threads.  Therefore, rank 0 is bound to CPU core 1 and PVC 0 Stack 0."
// This module reproduces that policy; the miniQMC model prices the
// per-socket CPU share it leaves each rank itself (miniapps/miniqmc.cpp).
//
// For cluster-scale runs (docs/SCALING.md) the same policy extends to a
// rank→(node, card, stack, core, NIC) placement: ranks fill nodes in
// order (node 0 gets ranks 0..subdevices-1, and so on), each node's
// ranks reuse the single-node core/GPU policy above, and NICs are dealt
// round-robin over a node's local ranks — the PALS-style default the
// Aurora scaling study assumes.

#include <vector>

#include "arch/gpu_spec.hpp"

namespace pvc::comm {

/// One rank's placement.
struct CpuBinding {
  int rank = 0;
  int device = 0;  ///< flat subdevice index
  int card = 0;
  int socket = 0;
  int core = 0;  ///< global core index the rank is pinned to
};

/// Binds `ranks` ranks (one per subdevice, device order) to cores,
/// skipping the first core of each socket (reserved for the OS) and
/// placing each rank on the socket closest to its GPU (cards are split
/// evenly across sockets).  Throws if ranks exceed subdevices or
/// available cores.
[[nodiscard]] std::vector<CpuBinding> bind_ranks(const arch::NodeSpec& node,
                                                 int ranks);

/// One rank's placement in a multi-node job (docs/SCALING.md).
struct GlobalBinding {
  int rank = 0;
  int node = 0;        ///< cluster node index
  int local_rank = 0;  ///< rank index within its node
  int device = 0;      ///< flat subdevice index within the node
  int card = 0;
  int stack = 0;
  int core = 0;  ///< global core index within the node
  int nic = 0;   ///< NIC index within the node (local_rank % nics)
};

/// Nodes needed to host `ranks` ranks at one rank per subdevice.
[[nodiscard]] int nodes_for_ranks(const arch::NodeSpec& node, int ranks);

/// Extends bind_ranks() across nodes: ranks fill nodes in order, every
/// full node reuses the single-node placement (cards split across
/// sockets, OS cores skipped), and each rank's NIC is local_rank %
/// `nics_per_node`.  Throws when ranks < 1 or nics_per_node < 1.
[[nodiscard]] std::vector<GlobalBinding> bind_ranks_multinode(
    const arch::NodeSpec& node, int nics_per_node, int ranks);

/// Spare-node failover (docs/ROBUSTNESS.md): rebinds every rank placed
/// on `from_node` onto `to_node`, keeping the local placement (card,
/// stack, core, NIC) identical — the spare is hardware-identical, only
/// the node index changes.  Returns how many ranks moved.
int remap_node_bindings(std::vector<GlobalBinding>& bindings, int from_node,
                        int to_node);

}  // namespace pvc::comm
