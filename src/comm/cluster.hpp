#pragma once
// Multi-node communicator: ranks spanning nodes, traffic through NICs.
//
// Communicator (communicator.hpp) binds ranks to the subdevices of ONE
// NodeSim and routes messages over Xe-Link flows.  ClusterComm is its
// cluster-scale sibling (docs/SCALING.md): ranks are placed by
// bind_ranks_multinode() across an Aurora-style cluster, and every
// inter-node message is injected through a Slingshot-like NIC
// queue — per-NIC injection bandwidth as a FlowNetwork link, per-NIC
// message rate as a FIFO serialization gate — then routed over the
// dragonfly group topology (sim/fabric.hpp) on its minimal route:
// router uplink, at most one global hop, router downlink, destination
// NIC.  Intra-node messages bypass the NICs over the node's aggregated
// Xe-Link capacity.
//
// The model is bulk-synchronous: exchange() posts a batch of messages
// at the current simulated time, runs the calendar dry, and reports
// per-message completions — the shape of every halo and allreduce
// round the cluster benches run.  Per-NIC injection gating keeps a
// next-free cursor per NIC (O(1) per message); the retained from-scratch
// recompute reference_injection_schedule() is the equivalence-test
// oracle, same pattern as FlowNetwork::reference_rates().
//
// Fault model (docs/ROBUSTNESS.md): a downed NIC (chaos `nicdown`)
// fails traffic over to the node's next healthy NIC at post time
// (fabric.nic.failovers counts them); a degraded NIC (`nicdegrade`)
// scales its injection/ejection links.
//
// Whole-node faults (chaos `nodedown`/`rankfail`): a downed node kills
// every in-flight flow touching its ranks (FlowNetwork::abort_flow — the
// completions never fire, no hangs) and subsequent messages to or from a
// dead rank are refused at post time, reported per message in
// ExchangeResult::failed.  Recovery is the caller's choice: the plain
// cluster_halo_exchange() wrapper raises ErrorCode::RankFailed, while
// fault/recovery.hpp (the halo exchange and the allreduce) rebuilds the
// schedule over the survivors (shrink) or rebinds the dead node's ranks
// onto a spare node (activate_spare + binding remap).  Checkpoint traffic
// (fault/checkpoint.hpp) is injected through the same NIC links by
// checkpoint_write().

#include <array>
#include <span>
#include <vector>

#include "comm/binding.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/flow_network.hpp"

namespace pvc::comm {

/// Rank-addressed bulk-synchronous communicator over a simulated
/// multi-node fabric.
class ClusterComm {
 public:
  /// Places `ranks` ranks (one per subdevice, nodes filled in order) on
  /// a cluster of `node`-shaped nodes joined by `fabric`.  `spare_nodes`
  /// idle hot-spare nodes are built into the fabric after the compute
  /// nodes, available to activate_spare().
  ClusterComm(const arch::NodeSpec& node, const sim::FabricSpec& fabric,
              int ranks, int spare_nodes = 0);
  ClusterComm(const ClusterComm&) = delete;
  ClusterComm& operator=(const ClusterComm&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(binding_.size());
  }
  [[nodiscard]] int node_count() const noexcept { return nodes_; }
  [[nodiscard]] int compute_node_count() const noexcept {
    return compute_nodes_;
  }
  [[nodiscard]] int spare_node_count() const noexcept {
    return nodes_ - compute_nodes_;
  }
  [[nodiscard]] int spares_available() const noexcept {
    return spare_node_count() - used_spares_;
  }
  [[nodiscard]] const sim::FabricSpec& fabric() const noexcept {
    return fabric_;
  }
  [[nodiscard]] const GlobalBinding& binding(int rank) const;
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::FlowNetwork& network() noexcept { return network_; }
  [[nodiscard]] const sim::DragonflyTopology& topology() const noexcept {
    return topology_;
  }

  /// One point-to-point message of a bulk exchange.
  struct Message {
    int src = 0;
    int dst = 0;
    double bytes = 0.0;
  };

  /// What one exchange() did, index-aligned with its message span.
  struct ExchangeResult {
    std::vector<double> completion_s;  ///< absolute completion times
    /// 1 when the message failed: refused at post time (dead endpoint)
    /// or killed in flight by a node/rank fault.  completion_s stays 0.
    std::vector<std::uint8_t> failed;
    int failures = 0;        ///< number of set entries in `failed`
    sim::Time finish = 0.0;  ///< completion of the last delivered message
  };

  /// Posts every message at the current simulated time (in span order —
  /// NIC injection FIFOs serialize in this order), runs the calendar
  /// dry, and returns per-message completion times.
  ExchangeResult exchange(std::span<const Message> messages);

  /// Links a message between two ranks would traverse right now
  /// (routing introspection for tests; empty for src == dst).
  [[nodiscard]] std::vector<sim::LinkId> route_links(int src_rank,
                                                     int dst_rank) const;

  // --- fault state (armed by fault::Injector, docs/ROBUSTNESS.md) ----------

  /// Downs (or restores) one NIC: subsequent messages assigned to it
  /// fail over to the node's next healthy NIC at post time.  Throws
  /// ErrorCode::LinkDown at post time if every NIC of a node is down.
  void set_nic_down(int node, int nic, bool down);
  [[nodiscard]] bool nic_down(int node, int nic) const;

  /// Scales one NIC's injection/ejection capacity to `factor` of
  /// healthy (0 < factor <= 1; 1 restores).
  void set_nic_degradation(int node, int nic, double factor);

  /// Downs (or restores) a whole node: every rank bound to it dies, its
  /// in-flight flows are killed (their completions never fire), and
  /// later messages touching its ranks are refused at post time.
  /// Restoring revives the node's ranks unless they also failed
  /// individually (`rankfail`).
  void set_node_down(int node, bool down);
  [[nodiscard]] bool node_down(int node) const;

  /// Kills one rank for the rest of the run (process abort): its
  /// in-flight flows die and later messages touching it are refused.
  void set_rank_failed(int rank);

  /// True when the rank can send and receive.
  [[nodiscard]] bool rank_alive(int rank) const;
  /// Number of currently dead ranks.
  [[nodiscard]] int failed_ranks() const noexcept;

  /// One spare-node failover (docs/ROBUSTNESS.md).
  struct FailoverRecord {
    int failed_node = 0;
    int spare_node = 0;
  };

  /// Fails `failed_node`'s ranks over to the next unused spare node:
  /// their bindings move (remap_node_bindings — local placement
  /// unchanged), the ranks are revived, and the failed node is left
  /// abandoned.  Returns the spare's node index; throws
  /// ErrorCode::RankFailed when no spare is left.
  int activate_spare(int failed_node);

  /// Every activate_spare() so far, in activation order.
  [[nodiscard]] const std::vector<FailoverRecord>& failover_log()
      const noexcept {
    return failover_log_;
  }

  /// The rank→node binding re-derived from scratch: a fresh
  /// bind_ranks_multinode() placement with the failover log replayed by
  /// a plain loop.  Must equal binding() field-for-field after any
  /// sequence of failovers — the resilience oracle test.
  [[nodiscard]] static std::vector<GlobalBinding> reference_failover_binding(
      const arch::NodeSpec& node, int nics_per_node, int ranks,
      std::span<const FailoverRecord> log);

  /// Writes one checkpoint: every live rank pushes `bytes_per_rank`
  /// through its NIC egress and router uplink (same injection FIFO gate
  /// as exchange()), modelling a parallel-filesystem drain out of the
  /// group.  Returns the elapsed simulated seconds until the slowest
  /// rank's data is out.
  sim::Time checkpoint_write(double bytes_per_rank);

  /// NIC injection bookkeeping of one posted message, in post order
  /// (cleared at the start of every exchange).  Intra-node messages do
  /// not appear — they bypass the NICs.
  struct InjectionRecord {
    int node = 0;       ///< source node
    int nic = 0;        ///< NIC actually used (after failover)
    double post_s = 0.0;
    double start_s = 0.0;  ///< injection start the O(1) cursor computed
  };
  [[nodiscard]] const std::vector<InjectionRecord>& injection_log()
      const noexcept {
    return injection_log_;
  }

  /// Injection starts re-derived from scratch: per-NIC FIFO replay of
  /// the log (start = max(post, previous start + 1/message_rate)).
  /// The O(1) next-free cursors must agree — asserted by the
  /// FabricOracle tests in tests/test_fabric.cpp.
  [[nodiscard]] static std::vector<double> reference_injection_schedule(
      const sim::FabricSpec& fabric,
      std::span<const InjectionRecord> log);

  /// Messages fully delivered so far (diagnostics).
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_;
  }

 private:
  struct NicState {
    sim::LinkId egress = 0;
    sim::LinkId ingress = 0;
    bool down = false;
    double next_free_s = 0.0;  ///< injection FIFO cursor
  };

  /// One posted message still in flight (registered at post, erased at
  /// completion): the node/rank endpoints recorded at post time drive
  /// the fault kill paths even after a failover rebinds the ranks.
  struct InFlight {
    sim::FlowId flow = 0;
    std::size_t idx = 0;  ///< index into the current exchange's span
    int src_rank = 0;
    int dst_rank = 0;
    int src_node = 0;
    int dst_node = 0;
  };

  /// Links of an inter-node message: NIC egress, router uplink, the
  /// global link between different groups, router downlink, NIC ingress.
  using FabricLinks = std::array<sim::LinkId, 5>;

  void build_links();
  /// Writes the links of the minimal route from `src_nic` to `dst_nic`
  /// into `out`; returns how many.
  std::size_t fabric_links(int src_node, int src_nic, int dst_node,
                           int dst_nic, FabricLinks& out) const;
  /// Completion of message `idx` of the current exchange.
  void deliver(std::size_t idx, sim::Time t);
  /// O(1) removal of message `idx`'s InFlight entry (no-op if absent):
  /// swap-remove plus the position index.  A linear find here made
  /// every completion O(inflight), turning large exchanges quadratic.
  void erase_inflight(std::size_t idx);
  /// Kills every in-flight flow `pred(entry)` selects, marking the
  /// message failed in the current exchange's result.
  template <typename Pred>
  void kill_inflight(Pred&& pred);
  [[nodiscard]] std::size_t nic_index(int node, int nic) const;
  [[nodiscard]] sim::LinkId global_link(int group_a, int group_b) const;
  /// First healthy NIC at or after `preferred` on `node`; throws
  /// ErrorCode::LinkDown when none is left.  Bumps the failover counter
  /// when it had to move.
  [[nodiscard]] int healthy_nic(int node, int preferred);

  arch::NodeSpec node_spec_;
  sim::FabricSpec fabric_;
  std::vector<GlobalBinding> binding_;
  int nodes_ = 0;          ///< compute + spare nodes (fabric size)
  int compute_nodes_ = 0;  ///< nodes hosting ranks at construction
  int used_spares_ = 0;
  sim::DragonflyTopology topology_;
  sim::Engine engine_;
  sim::FlowNetwork network_;

  std::vector<NicState> nics_;          // node-major [node * per_node + nic]
  std::vector<sim::LinkId> uplinks_;    // per node
  std::vector<sim::LinkId> downlinks_;  // per node
  std::vector<sim::LinkId> intra_;      // per node
  std::vector<sim::LinkId> globals_;    // group-pair matrix (a < b mirrored)

  std::vector<InjectionRecord> injection_log_;
  std::uint64_t delivered_ = 0;

  /// Per-rank fault state: bit 0 = node down, bit 1 = rank failed.
  /// Alive ⇔ 0.  Sized to size().
  std::vector<std::uint8_t> rank_state_;
  std::vector<std::uint8_t> node_down_;  // per node
  std::vector<FailoverRecord> failover_log_;
  std::vector<InFlight> inflight_;
  /// message idx -> position+1 in inflight_ (0 = not in flight).
  std::vector<std::uint32_t> inflight_pos_;
  ExchangeResult* current_result_ = nullptr;  // non-null inside exchange()
  std::span<const Message> current_messages_;  // set inside exchange()
};

/// 1-D ring halo exchange over the cluster: every rank sends
/// `halo_bytes` to both ring neighbours (rank order, so most pairs are
/// intra-node and node boundaries cross the fabric).  Returns the
/// elapsed simulated seconds until the slowest rank finishes.  Raises
/// ErrorCode::RankFailed if any message fails (use fault/recovery.hpp
/// for the fault-tolerant variant).
sim::Time cluster_halo_exchange(ClusterComm& cluster, double halo_bytes);

}  // namespace pvc::comm
