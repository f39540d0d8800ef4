#include "comm/cluster.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "comm/metrics_internal.hpp"
#include "core/error.hpp"

namespace pvc::comm {

namespace detail {

FabricMetrics& fabric_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local FabricMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    FabricMetrics f;
    f.messages = &reg.counter("fabric.messages", "messages",
                              "messages delivered over the cluster fabric");
    f.bytes = &reg.counter("fabric.bytes", "bytes",
                           "payload bytes delivered over the cluster fabric");
    f.routes_intra_node =
        &reg.counter("fabric.routes.intra_node", "messages",
                     "messages whose endpoints shared a node (NIC bypass)");
    f.routes_minimal =
        &reg.counter("fabric.routes.minimal", "messages",
                     "inter-node messages on the minimal dragonfly route");
    f.hops_local = &reg.counter("fabric.hops.local", "hops",
                                "router uplink/downlink traversals");
    f.hops_global = &reg.counter("fabric.hops.global", "hops",
                                 "inter-group global-link traversals");
    f.nic_failovers = &reg.counter(
        "fabric.nic.failovers", "messages",
        "messages re-steered from a downed NIC to a healthy sibling");
    f.nic_stall_seconds = &reg.gauge(
        "fabric.nic.stall_seconds", "seconds",
        "cumulative injection delay behind the per-NIC message-rate gate");
    f.node_down_events = &reg.counter(
        "fabric.node_down_events", "events",
        "whole-node outages applied to the cluster (down edges only)");
    f.flows_killed =
        &reg.counter("fabric.flows_killed", "flows",
                     "in-flight flows killed by a node or rank fault");
    f.messages_refused = &reg.counter(
        "fabric.messages_refused", "messages",
        "messages refused at post time because an endpoint rank was dead");
    f.spare_activations =
        &reg.counter("fabric.spare_activations", "nodes",
                     "spare nodes activated by failover recovery");
    f.ckpt_bytes = &reg.counter(
        "fabric.ckpt.bytes", "bytes",
        "checkpoint payload bytes drained through the NIC links");
    return f;
  }();
  return m;
}

}  // namespace detail

namespace {

/// "<what><value> out of range [0, <bound>)": the text of the per-message
/// range checks, built only when one fails.
std::string range_message(const char* what, int value, int bound) {
  return what + std::to_string(value) + " out of range [0, " +
         std::to_string(bound) + ")";
}

}  // namespace

ClusterComm::ClusterComm(const arch::NodeSpec& node,
                         const sim::FabricSpec& fabric, int ranks,
                         int spare_nodes)
    : node_spec_(node),
      fabric_(fabric),
      binding_(bind_ranks_multinode(node, fabric.nic.per_node, ranks)),
      nodes_(nodes_for_ranks(node, ranks) + spare_nodes),
      compute_nodes_(nodes_for_ranks(node, ranks)),
      topology_(fabric.topo, nodes_),
      network_(engine_) {
  ensure(spare_nodes >= 0, ErrorCode::InvalidArgument,
         "ClusterComm: spare_nodes must be non-negative");
  ensure(fabric_.intra_node_bps > 0.0, ErrorCode::InvalidArgument,
         "ClusterComm: fabric intra_node_bps must be positive");
  ensure(fabric_.nic.injection_bps > 0.0, ErrorCode::InvalidArgument,
         "ClusterComm: NIC injection bandwidth must be positive");
  rank_state_.assign(binding_.size(), 0);
  node_down_.assign(static_cast<std::size_t>(nodes_), 0);
  build_links();
}

void ClusterComm::build_links() {
  // Every cluster link is LinkClass::Other: the per-class net.* series
  // break down NodeSim's intra-node links only.
  constexpr sim::LinkClass kOther = sim::LinkClass::Other;
  const int per_node = fabric_.nic.per_node;
  nics_.resize(static_cast<std::size_t>(nodes_) * per_node);
  intra_.reserve(static_cast<std::size_t>(nodes_));
  uplinks_.reserve(static_cast<std::size_t>(nodes_));
  downlinks_.reserve(static_cast<std::size_t>(nodes_));
  for (int n = 0; n < nodes_; ++n) {
    intra_.push_back(network_.add_link(kOther, fabric_.intra_node_bps));
    uplinks_.push_back(network_.add_link(kOther, fabric_.topo.local_link_bps));
    downlinks_.push_back(
        network_.add_link(kOther, fabric_.topo.local_link_bps));
    for (int i = 0; i < per_node; ++i) {
      NicState& nic = nics_[nic_index(n, i)];
      nic.egress = network_.add_link(kOther, fabric_.nic.injection_bps);
      nic.ingress = network_.add_link(kOther, fabric_.nic.injection_bps);
    }
  }
  // One aggregated global link per group pair (dragonfly all-to-all
  // between groups); both directions share the aggregate.
  const int groups = topology_.groups();
  globals_.assign(static_cast<std::size_t>(groups) * groups, 0);
  for (int a = 0; a < groups; ++a) {
    for (int b = a + 1; b < groups; ++b) {
      const sim::LinkId id =
          network_.add_link(kOther, fabric_.topo.global_link_bps);
      globals_[static_cast<std::size_t>(a) * groups + b] = id;
      globals_[static_cast<std::size_t>(b) * groups + a] = id;
    }
  }
}

const GlobalBinding& ClusterComm::binding(int rank) const {
  ensure(rank >= 0 && rank < size(), ErrorCode::InvalidArgument, [&] {
    return range_message("ClusterComm::binding: rank ", rank, size());
  });
  return binding_[static_cast<std::size_t>(rank)];
}

std::size_t ClusterComm::nic_index(int node, int nic) const {
  ensure(node >= 0 && node < nodes_, ErrorCode::InvalidArgument,
         [&] { return range_message("ClusterComm: node ", node, nodes_); });
  ensure(nic >= 0 && nic < fabric_.nic.per_node, ErrorCode::InvalidArgument,
         [&] {
           return range_message("ClusterComm: NIC ", nic,
                                fabric_.nic.per_node);
         });
  return static_cast<std::size_t>(node) * fabric_.nic.per_node + nic;
}

sim::LinkId ClusterComm::global_link(int group_a, int group_b) const {
  ensure(group_a != group_b, ErrorCode::InvalidArgument,
         "ClusterComm: no global link inside one group");
  return globals_[static_cast<std::size_t>(group_a) * topology_.groups() +
                  group_b];
}

namespace {

/// First healthy NIC index at or after `preferred`, scanning round-robin;
/// -1 when every NIC of the node is down.
[[nodiscard]] int scan_healthy(const std::vector<bool>& down, int per_node,
                               int preferred) {
  for (int k = 0; k < per_node; ++k) {
    const int i = (preferred + k) % per_node;
    if (!down[static_cast<std::size_t>(i)]) {
      return i;
    }
  }
  return -1;
}

}  // namespace

int ClusterComm::healthy_nic(int node, int preferred) {
  const int per_node = fabric_.nic.per_node;
  for (int k = 0; k < per_node; ++k) {
    const int i = (preferred + k) % per_node;
    if (!nics_[nic_index(node, i)].down) {
      if (k > 0) {
        detail::fabric_metrics().nic_failovers->add();
      }
      return i;
    }
  }
  raise(ErrorCode::LinkDown, "ClusterComm: every NIC of node " +
                                 std::to_string(node) + " is down");
}

std::size_t ClusterComm::fabric_links(int src_node, int src_nic, int dst_node,
                                      int dst_nic, FabricLinks& out) const {
  const int gs = topology_.group_of(src_node);
  const int gd = topology_.group_of(dst_node);
  std::size_t n = 0;
  out[n++] = nics_[nic_index(src_node, src_nic)].egress;
  out[n++] = uplinks_[static_cast<std::size_t>(src_node)];
  if (gs != gd) {
    out[n++] = global_link(gs, gd);
  }
  out[n++] = downlinks_[static_cast<std::size_t>(dst_node)];
  out[n++] = nics_[nic_index(dst_node, dst_nic)].ingress;
  return n;
}

void ClusterComm::deliver(std::size_t idx, sim::Time t) {
  ExchangeResult& result = *current_result_;
  result.completion_s[idx] = t;
  result.finish = std::max(result.finish, t);
  ++delivered_;
  auto& fm = detail::fabric_metrics();
  fm.messages->add();
  fm.bytes->add(static_cast<std::uint64_t>(current_messages_[idx].bytes));
  erase_inflight(idx);
}

ClusterComm::ExchangeResult ClusterComm::exchange(
    std::span<const Message> messages) {
  auto& fm = detail::fabric_metrics();
  injection_log_.clear();
  injection_log_.reserve(messages.size());
  ExchangeResult result;
  result.completion_s.assign(messages.size(), 0.0);
  result.failed.assign(messages.size(), 0);
  const double post = engine_.now();
  const double gap = sim::nic_message_gap_s(fabric_);

  // Expose the in-progress result and the messages to the completion
  // callbacks and the fault paths (set_node_down / set_rank_failed fired
  // by armed chaos events during engine_.run()), so killed messages are
  // reported per index.  The guard also clears the in-flight registry
  // if an exception (e.g. LinkDown at post time) unwinds mid-exchange.
  struct ResultScope {
    ClusterComm* comm;
    ~ResultScope() {
      comm->current_result_ = nullptr;
      comm->current_messages_ = {};
      comm->inflight_.clear();
      comm->inflight_pos_.clear();
    }
  } scope{this};
  current_result_ = &result;
  current_messages_ = messages;
  inflight_.clear();
  inflight_pos_.assign(messages.size(), 0);
  network_.reserve_flows(messages.size());

  for (std::size_t idx = 0; idx < messages.size(); ++idx) {
    const Message& msg = messages[idx];
    ensure(msg.src >= 0 && msg.src < size() && msg.dst >= 0 &&
               msg.dst < size(),
           ErrorCode::InvalidArgument,
           "ClusterComm::exchange: message rank out of range");
    ensure(msg.bytes >= 0.0, ErrorCode::InvalidArgument,
           "ClusterComm::exchange: negative byte count");
    if (!rank_alive(msg.src) || !rank_alive(msg.dst)) {
      // Dead endpoint: refuse at post time — the typed-error analogue of
      // MPI failing a send to a dead process, never a hang.
      result.failed[idx] = 1;
      ++result.failures;
      fm.messages_refused->add();
      continue;
    }
    const GlobalBinding& src = binding_[static_cast<std::size_t>(msg.src)];
    const GlobalBinding& dst = binding_[static_cast<std::size_t>(msg.dst)];
    // The callback captures {this, idx}, small enough for
    // std::function's inline buffer: posting a message allocates nothing.
    const auto post_flow = [&](std::span<const sim::LinkId> links,
                               double latency) {
      const sim::FlowId flow = network_.start_flow(
          links, msg.bytes, latency,
          [this, idx](sim::Time t) { deliver(idx, t); });
      inflight_.push_back(
          InFlight{flow, idx, msg.src, msg.dst, src.node, dst.node});
      inflight_pos_[idx] = static_cast<std::uint32_t>(inflight_.size());
    };

    if (msg.src == msg.dst) {
      // Self-message: local copy, no fabric traversal.
      post_flow({}, 0.0);
      continue;
    }
    if (src.node == dst.node) {
      fm.routes_intra_node->add();
      post_flow({&intra_[static_cast<std::size_t>(src.node)], 1},
                fabric_.intra_node_latency_s);
      continue;
    }

    // Inter-node: pick the NIC (failing over around downed ones), gate
    // the injection behind the NIC's message-rate FIFO, then route.
    const int src_nic = healthy_nic(src.node, src.nic);
    const int dst_nic = healthy_nic(dst.node, dst.nic);
    NicState& nic = nics_[nic_index(src.node, src_nic)];
    const double start = std::max(post, nic.next_free_s);
    nic.next_free_s = start + gap;
    injection_log_.push_back({src.node, src_nic, post, start});
    fm.nic_stall_seconds->add(start - post);

    const sim::FabricRoute route = topology_.route(src.node, dst.node);
    fm.routes_minimal->add();
    fm.hops_local->add(static_cast<std::uint64_t>(route.local_hops));
    fm.hops_global->add(static_cast<std::uint64_t>(route.global_hops));

    FabricLinks links;
    const std::size_t hops =
        fabric_links(src.node, src_nic, dst.node, dst_nic, links);
    const double latency = (start - post) + 2.0 * fabric_.nic.latency_s +
                           route.latency_s;
    post_flow({links.data(), hops}, latency);
  }

  engine_.run();
  return result;
}

std::vector<sim::LinkId> ClusterComm::route_links(int src_rank,
                                                  int dst_rank) const {
  const GlobalBinding& src = binding(src_rank);
  const GlobalBinding& dst = binding(dst_rank);
  if (src_rank == dst_rank) {
    return {};
  }
  if (src.node == dst.node) {
    return {intra_[static_cast<std::size_t>(src.node)]};
  }
  const int per_node = fabric_.nic.per_node;
  std::vector<bool> down(static_cast<std::size_t>(per_node));
  const auto pick = [&](int node, int preferred) {
    for (int i = 0; i < per_node; ++i) {
      down[static_cast<std::size_t>(i)] = nics_[nic_index(node, i)].down;
    }
    const int nic = scan_healthy(down, per_node, preferred);
    ensure(nic >= 0, ErrorCode::LinkDown,
           "ClusterComm: every NIC of node " + std::to_string(node) +
               " is down");
    return nic;
  };
  const int src_nic = pick(src.node, src.nic);
  const int dst_nic = pick(dst.node, dst.nic);
  FabricLinks links;
  const std::size_t hops =
      fabric_links(src.node, src_nic, dst.node, dst_nic, links);
  return {links.begin(), links.begin() + static_cast<std::ptrdiff_t>(hops)};
}

void ClusterComm::set_nic_down(int node, int nic, bool down) {
  nics_[nic_index(node, nic)].down = down;
}

void ClusterComm::erase_inflight(std::size_t idx) {
  const std::uint32_t pos1 = inflight_pos_[idx];
  if (pos1 == 0) {
    return;
  }
  const std::size_t pos = pos1 - 1;
  inflight_pos_[idx] = 0;
  const InFlight last = inflight_.back();
  inflight_.pop_back();
  if (pos < inflight_.size()) {
    inflight_[pos] = last;
    inflight_pos_[last.idx] = static_cast<std::uint32_t>(pos) + 1;
  }
}

template <typename Pred>
void ClusterComm::kill_inflight(Pred&& pred) {
  auto& fm = detail::fabric_metrics();
  for (std::size_t i = 0; i < inflight_.size();) {
    const InFlight& entry = inflight_[i];
    if (!pred(entry)) {
      ++i;
      continue;
    }
    // The abort drops the completion callback, so the message simply
    // never arrives; the result records it as failed instead of hanging.
    network_.abort_flow(entry.flow);
    fm.flows_killed->add();
    if (current_result_ != nullptr) {
      if (!current_result_->failed[entry.idx]) {
        current_result_->failed[entry.idx] = 1;
        ++current_result_->failures;
      }
    }
    // Swaps the tail entry into position i, so i is not advanced.
    erase_inflight(entry.idx);
  }
}

void ClusterComm::set_node_down(int node, bool down) {
  ensure(node >= 0 && node < nodes_, ErrorCode::InvalidArgument,
         [&] { return range_message("ClusterComm: node ", node, nodes_); });
  node_down_[static_cast<std::size_t>(node)] = down ? 1 : 0;
  for (std::size_t r = 0; r < binding_.size(); ++r) {
    if (binding_[r].node == node) {
      if (down) {
        rank_state_[r] |= 1;
      } else {
        rank_state_[r] &= static_cast<std::uint8_t>(~1u);
      }
    }
  }
  if (down) {
    detail::fabric_metrics().node_down_events->add();
    kill_inflight([node](const InFlight& f) {
      return f.src_node == node || f.dst_node == node;
    });
  }
}

bool ClusterComm::node_down(int node) const {
  ensure(node >= 0 && node < nodes_, ErrorCode::InvalidArgument,
         [&] { return range_message("ClusterComm: node ", node, nodes_); });
  return node_down_[static_cast<std::size_t>(node)] != 0;
}

void ClusterComm::set_rank_failed(int rank) {
  ensure(rank >= 0 && rank < size(), ErrorCode::InvalidArgument,
         [&] { return range_message("ClusterComm: rank ", rank, size()); });
  rank_state_[static_cast<std::size_t>(rank)] |= 2;
  kill_inflight([rank](const InFlight& f) {
    return f.src_rank == rank || f.dst_rank == rank;
  });
}

bool ClusterComm::rank_alive(int rank) const {
  ensure(rank >= 0 && rank < size(), ErrorCode::InvalidArgument,
         [&] { return range_message("ClusterComm: rank ", rank, size()); });
  return rank_state_[static_cast<std::size_t>(rank)] == 0;
}

int ClusterComm::failed_ranks() const noexcept {
  int dead = 0;
  for (const std::uint8_t s : rank_state_) {
    dead += s != 0;
  }
  return dead;
}

int ClusterComm::activate_spare(int failed_node) {
  ensure(failed_node >= 0 && failed_node < nodes_, ErrorCode::InvalidArgument,
         "ClusterComm: failed node out of range");
  ensure(spares_available() > 0, ErrorCode::RankFailed, [&] {
    return "ClusterComm: no spare node left to fail node " +
           std::to_string(failed_node) + " over to";
  });
  const int spare = compute_nodes_ + used_spares_;
  ++used_spares_;
  remap_node_bindings(binding_, failed_node, spare);
  // The moved ranks come back alive on the spare (their checkpointed
  // state is restored there); the abandoned node stays marked down.
  for (std::size_t r = 0; r < binding_.size(); ++r) {
    if (binding_[r].node == spare) {
      rank_state_[r] = 0;
    }
  }
  node_down_[static_cast<std::size_t>(failed_node)] = 1;
  failover_log_.push_back(FailoverRecord{failed_node, spare});
  detail::fabric_metrics().spare_activations->add();
  return spare;
}

std::vector<GlobalBinding> ClusterComm::reference_failover_binding(
    const arch::NodeSpec& node, int nics_per_node, int ranks,
    std::span<const FailoverRecord> log) {
  // From-scratch oracle: rebuild the pristine placement and replay every
  // failover with a plain loop (no shared code with activate_spare's
  // incremental path beyond the remap helper's contract).
  std::vector<GlobalBinding> out =
      bind_ranks_multinode(node, nics_per_node, ranks);
  for (const FailoverRecord& rec : log) {
    for (GlobalBinding& b : out) {
      if (b.node == rec.failed_node) {
        b.node = rec.spare_node;
      }
    }
  }
  return out;
}

sim::Time ClusterComm::checkpoint_write(double bytes_per_rank) {
  ensure(bytes_per_rank > 0.0, ErrorCode::InvalidArgument,
         "ClusterComm: checkpoint bytes per rank must be positive");
  auto& fm = detail::fabric_metrics();
  const double post = engine_.now();
  const double gap = sim::nic_message_gap_s(fabric_);
  sim::Time finish = post;
  network_.reserve_flows(binding_.size());
  for (std::size_t r = 0; r < binding_.size(); ++r) {
    if (rank_state_[r] != 0) {
      continue;  // dead ranks have nothing to save
    }
    const GlobalBinding& b = binding_[r];
    const int nic_id = healthy_nic(b.node, b.nic);
    NicState& nic = nics_[nic_index(b.node, nic_id)];
    const double start = std::max(post, nic.next_free_s);
    nic.next_free_s = start + gap;
    const double latency = (start - post) + fabric_.nic.latency_s +
                           fabric_.topo.local_hop_latency_s;
    const std::array<sim::LinkId, 2> route{
        nic.egress, uplinks_[static_cast<std::size_t>(b.node)]};
    network_.start_flow(route, bytes_per_rank, latency,
                        [&finish](sim::Time t) {
                          finish = std::max(finish, t);
                        });
    fm.ckpt_bytes->add(static_cast<std::uint64_t>(bytes_per_rank));
  }
  engine_.run();
  return finish - post;
}

bool ClusterComm::nic_down(int node, int nic) const {
  return nics_[nic_index(node, nic)].down;
}

void ClusterComm::set_nic_degradation(int node, int nic, double factor) {
  ensure(factor > 0.0 && factor <= 1.0, ErrorCode::InvalidArgument,
         "ClusterComm: NIC degradation factor must be in (0, 1]");
  const NicState& state = nics_[nic_index(node, nic)];
  network_.set_link_scale(state.egress, factor);
  network_.set_link_scale(state.ingress, factor);
}

std::vector<double> ClusterComm::reference_injection_schedule(
    const sim::FabricSpec& fabric, std::span<const InjectionRecord> log) {
  // From-scratch replay: one FIFO cursor per (node, NIC), advanced in
  // log (= post) order.  Must agree with the O(1) cursors exchange()
  // kept — the FabricOracle equivalence test.
  const double gap = sim::nic_message_gap_s(fabric);
  std::vector<double> out;
  out.reserve(log.size());
  std::vector<std::pair<std::pair<int, int>, double>> cursors;
  for (const InjectionRecord& rec : log) {
    const std::pair<int, int> key{rec.node, rec.nic};
    auto it = std::find_if(cursors.begin(), cursors.end(),
                           [&](const auto& c) { return c.first == key; });
    if (it == cursors.end()) {
      cursors.push_back({key, 0.0});
      it = cursors.end() - 1;
    }
    const double start = std::max(rec.post_s, it->second);
    it->second = start + gap;
    out.push_back(start);
  }
  return out;
}

sim::Time cluster_halo_exchange(ClusterComm& cluster, double halo_bytes) {
  const int p = cluster.size();
  std::vector<ClusterComm::Message> messages;
  messages.reserve(static_cast<std::size_t>(p) * 2);
  for (int r = 0; r < p; ++r) {
    messages.push_back({r, (r + 1) % p, halo_bytes});
    messages.push_back({r, (r - 1 + p) % p, halo_bytes});
  }
  const sim::Time t0 = cluster.engine().now();
  const auto result = cluster.exchange(messages);
  ensure(result.failures == 0, ErrorCode::RankFailed, [&] {
    return "cluster_halo_exchange: " + std::to_string(result.failures) +
           " message(s) failed — a rank or node died (use the "
           "fault-tolerant driver in fault/recovery.hpp to recover)";
  });
  return result.finish - t0;
}

}  // namespace pvc::comm
