#include "comm/binding.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace pvc::comm {

std::vector<CpuBinding> bind_ranks(const arch::NodeSpec& node, int ranks) {
  ensure(ranks >= 1 && ranks <= node.total_subdevices(),
         "bind_ranks: rank count must be in [1, subdevices]");
  const int sockets = node.cpu.sockets;
  const int cores_per_socket = node.cpu.cores_per_socket;
  ensure(sockets >= 1 && cores_per_socket >= 2,
         "bind_ranks: implausible CPU shape");

  std::vector<CpuBinding> out;
  std::vector<int> next_free(static_cast<std::size_t>(sockets), 1);  // core 0 reserved
  for (int r = 0; r < ranks; ++r) {
    CpuBinding b;
    b.rank = r;
    b.device = r;
    b.card = r / node.card.subdevice_count;
    // Cards are distributed evenly across sockets (Aurora: cards 0-2 on
    // socket 0, cards 3-5 on socket 1).
    b.socket = (b.card * sockets) / node.card_count;
    auto& cursor = next_free[static_cast<std::size_t>(b.socket)];
    ensure(cursor < cores_per_socket, [&] {
      return "bind_ranks: socket " + std::to_string(b.socket) +
             " out of free cores";
    });
    b.core = b.socket * cores_per_socket + cursor;
    ++cursor;
    out.push_back(b);
  }
  return out;
}

int nodes_for_ranks(const arch::NodeSpec& node, int ranks) {
  ensure(ranks >= 1, ErrorCode::InvalidArgument,
         "nodes_for_ranks: need at least one rank");
  const int per_node = node.total_subdevices();
  return (ranks + per_node - 1) / per_node;
}

std::vector<GlobalBinding> bind_ranks_multinode(const arch::NodeSpec& node,
                                                int nics_per_node,
                                                int ranks) {
  ensure(ranks >= 1, ErrorCode::InvalidArgument,
         "bind_ranks_multinode: need at least one rank");
  ensure(nics_per_node >= 1, ErrorCode::InvalidArgument,
         "bind_ranks_multinode: need at least one NIC per node");
  const int per_node = node.total_subdevices();
  std::vector<GlobalBinding> out;
  out.reserve(static_cast<std::size_t>(ranks));
  for (int first = 0; first < ranks; first += per_node) {
    const int count = std::min(per_node, ranks - first);
    // Reuse the single-node policy for this node's slice, so cards,
    // sockets, and cores match what bind_ranks() reports.
    const auto local = bind_ranks(node, count);
    for (const CpuBinding& b : local) {
      GlobalBinding g;
      g.rank = first + b.rank;
      g.node = first / per_node;
      g.local_rank = b.rank;
      g.device = b.device;
      g.card = b.card;
      g.stack = b.device % node.card.subdevice_count;
      g.core = b.core;
      g.nic = b.rank % nics_per_node;
      out.push_back(g);
    }
  }
  return out;
}

int remap_node_bindings(std::vector<GlobalBinding>& bindings, int from_node,
                        int to_node) {
  ensure(from_node >= 0 && to_node >= 0 && from_node != to_node,
         ErrorCode::InvalidArgument,
         "remap_node_bindings: need two distinct non-negative nodes");
  int moved = 0;
  for (GlobalBinding& b : bindings) {
    if (b.node == from_node) {
      b.node = to_node;
      ++moved;
    }
  }
  return moved;
}

}  // namespace pvc::comm
