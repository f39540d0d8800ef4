#pragma once
// Flow-level network model with max-min fair bandwidth sharing.
//
// Transfers (PCIe H2D/D2H, MDFI stack-to-stack, Xe-Link remote-stack,
// host-chipset aggregates) are modelled as fluid flows over a set of
// capacitated links.  Whenever a flow starts or finishes, every active
// flow's rate is recomputed by progressive filling (water-filling), the
// classic max-min fair allocation.  This reproduces the contention
// behaviour the paper observes: two stacks sharing one PCIe card link,
// directional host-side caps, and bidirectional totals below 2x the
// unidirectional rate.
//
// Routes may traverse the same link more than once (2-hop Xe-Link routes);
// each traversal consumes an extra share of that link's capacity.
//
// Hot-path design (docs/PERFORMANCE.md, "Flow network"):
//  * Slot-addressed flows.  A flow takes a slot of the slot-indexed
//    storage (free list, no per-flow node allocations) when it starts.
//    Its FlowId packs (generation << 32) | slot, like the engine's
//    EventId, so abort_flow(), flow_rate() and the end of the latency
//    phase find it with one generation compare.
//  * Inline routes.  start_flow() copies the route into the flow's slot
//    (at most kMaxRouteLinks 32-bit link ids), so a flow's life
//    allocates nothing once the slot table has room.
//  * Creation-order active list.  `active_` keeps the transferring flows
//    in creation order, the order completion callbacks fire in.
//    Activations append; the order is restored once per simulated
//    instant, before the rate solve and before the completion scan, by
//    one linear merge.  A finished batch, and any flow aborted at that
//    instant, leaves in one stable compaction.
//  * Costs.  Starting, activating, aborting or completing one flow is
//    O(1) plus its route.  The work that walks every active flow (the
//    order merge, progress integration, the rate solve, the
//    next-completion and completion scans) runs once per instant.
//  * Incremental solver state.  Per-link active-traversal counts and a
//    compact active-link list follow each activation and unlink, one
//    step per route traversal; the progressive-filling scratch buffers
//    are reused across solves.
//  * Batched solves.  Mutations mark the rates dirty and a zero-delay
//    resolve event (or the first rate query, whichever comes first) runs
//    progressive filling once per simulated instant, so N flows starting
//    at the same timestamp cost one solve instead of N.
// reference_rates() retains the original from-scratch solver as the
// equivalence-test oracle.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace pvc::sim {

using LinkId = std::size_t;
/// Longest route start_flow() accepts (the flow record holds it inline);
/// NodeSim's longest, the host-staged reroute, has 13 links.
inline constexpr std::size_t kMaxRouteLinks = 16;
/// Handle of one flow.  Packs (generation << 32) | slot, like EventId:
/// once the flow finishes or is aborted its id goes stale, even after a
/// later flow reuses the slot.  0 is never a valid id.
using FlowId = std::uint64_t;

/// Coarse link taxonomy used for per-class metrics (obs registry names
/// net.<class>.bytes / net.<class>.flow_seconds).  The builder of the
/// graph passes each link's class to add_link(): NodeSim labels its
/// PCIe, host, MDFI, Xe-Link and fabric-ceiling links, and ClusterComm's
/// NIC, router and global links are all Other.
enum class LinkClass : std::uint8_t {
  Pcie,       ///< per-card PCIe h2d/d2h/shared links
  Host,       ///< host root-complex aggregates and the staging link
  Mdfi,       ///< same-card stack-to-stack links
  XeLink,     ///< remote fabric egress/ingress/pair links
  FabricAgg,  ///< node-wide fabric ceiling
  Other,
};

inline constexpr std::size_t kLinkClassCount =
    static_cast<std::size_t>(LinkClass::Other) + 1;

[[nodiscard]] const char* link_class_name(LinkClass c);

/// A capacitated unidirectional resource.
struct Link {
  double capacity_bps = 0.0;  ///< bytes per second, healthy
  LinkClass cls = LinkClass::Other;
  /// Degradation factor in (0, 1]; 1 = healthy.  Fault windows (link
  /// retraining, thermal excursions — docs/ROBUSTNESS.md) scale the
  /// effective capacity through set_link_scale().
  double scale = 1.0;

  [[nodiscard]] double effective_capacity_bps() const noexcept {
    return capacity_bps * scale;
  }
};

/// Fluid-flow network driven by an Engine.
class FlowNetwork {
 public:
  explicit FlowNetwork(Engine& engine) : engine_(&engine) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Adds a link of class `cls` with the given capacity (> 0) and
  /// returns its id.  At most 2^32 - 1 links: routes store 32-bit ids.
  LinkId add_link(LinkClass cls, double capacity_bps);

  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Degrades (or restores) a link to `scale` × its healthy capacity.
  /// `scale` must be in (0, 1] — a fully-dead link is modelled by
  /// rerouting at the NodeSim layer, not by zero capacity, so flows
  /// already in flight crawl through at the degraded rate instead of
  /// deadlocking.  Active flows are re-shared immediately.
  void set_link_scale(LinkId id, double scale);
  [[nodiscard]] double link_scale(LinkId id) const;

  /// Starts a flow of `bytes` over `route` after `latency_s` of setup
  /// latency.  `on_complete(now)` fires when the last byte arrives.
  /// An empty route models an instantaneous local operation (completes
  /// after latency only).  The route is copied into the flow's record:
  /// more than kMaxRouteLinks links is an InvalidArgument.
  FlowId start_flow(std::span<const LinkId> route, double bytes,
                    double latency_s, std::function<void(Time)> on_complete);

  /// Makes room for `flows` more flows in flight at once, so starting a
  /// batch of them grows the slot table at most once.
  void reserve_flows(std::size_t flows);

  /// Aborts an in-flight flow: it stops consuming capacity and its
  /// on_complete callback never fires (the caller reports the failure
  /// through its own typed-error channel — docs/ROBUSTNESS.md node
  /// faults).  Works in both the latency phase and the transfer phase.
  /// Returns false when the id is unknown, stale, or already finished.
  /// Remaining active flows are re-shared immediately.  O(1) plus the
  /// route length.
  bool abort_flow(FlowId id);

  /// Flows killed by abort_flow() so far (diagnostics).
  [[nodiscard]] std::uint64_t flows_aborted() const noexcept {
    return flows_aborted_;
  }

  /// Number of flows currently transferring (excludes latency phase).
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return active_.size() - retired_;
  }

  /// Current fair-share rate of an active flow; 0 if unknown, stale,
  /// finished, or still in its latency phase.
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Instantaneous load on a link: the sum of active flow rates crossing
  /// it (counting multiplicity).  Never exceeds the link's capacity —
  /// the invariant the property tests check.  Walks every active flow's
  /// route (tests and introspection only).
  [[nodiscard]] double link_load(LinkId id) const;

  /// (id, rate) of every active flow, in creation order
  /// (test/introspection).
  [[nodiscard]] std::vector<std::pair<FlowId, double>> current_rates() const;

  /// Max-min rates re-derived from scratch by the retained reference
  /// solver (full progressive filling over all links, fresh buffers).
  /// The incremental hot path must agree with this oracle — asserted by
  /// the randomized-churn equivalence test in tests/test_sim.cpp.
  [[nodiscard]] std::vector<std::pair<FlowId, double>> reference_rates() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Where a slot's flow is in its life.
  enum class State : std::uint8_t {
    Free,     ///< on the free list
    Latent,   ///< latency phase: its end_latency() event is pending
    Active,   ///< transferring, listed in active_
    Retired,  ///< aborted while active: still listed in active_ (but
              ///< unlinked from every link) until the next compaction
  };

  struct Flow {
    std::uint64_t seq = 0;  ///< creation order, the order of active_
    double remaining = 0.0;
    double rate = 0.0;
    std::function<void(Time)> on_complete;
    std::uint32_t generation = 0;  ///< bumped each time the slot is taken
    State state = State::Free;
    std::uint8_t class_mask = 0;  ///< distinct LinkClass bits of the route
    std::uint8_t hops = 0;        ///< route length
    /// The route in traversal order; a link crossed twice appears twice.
    std::array<std::uint32_t, kMaxRouteLinks> route{};
    [[nodiscard]] std::span<const std::uint32_t> links() const noexcept {
      return {route.data(), hops};
    }
  };

  [[nodiscard]] std::uint32_t take_slot();
  void release_slot(std::uint32_t slot);
  [[nodiscard]] FlowId flow_id(std::uint32_t slot) const noexcept {
    return (static_cast<FlowId>(slots_[slot].generation) << 32) | slot;
  }
  /// Slot of a latent or active flow; kNoSlot for a stale or unknown id.
  [[nodiscard]] std::uint32_t live_slot(FlowId id) const noexcept;
  /// The latency-phase event: completes a pure-latency flow or activates
  /// a transfer; bails when the flow was aborted meanwhile.
  void end_latency(FlowId id);
  void activate(std::uint32_t slot);
  /// Drops an active flow's link and class bookkeeping (active_ keeps
  /// the slot until the next compaction).
  void unlink(std::uint32_t slot);
  /// Merges the activations appended since the last call back into
  /// creation order: sorts them only when they arrived out of order,
  /// then one linear merge.
  void restore_active_order();
  /// One stable pass over active_: releases retired slots and moves the
  /// slots `done` selects to finished_slots_, in creation order.
  template <typename Done>
  void compact_active(Done&& done);
  void advance_progress();
  void recompute_rates();
  /// Flags the fair-share rates stale and (once per simulated instant)
  /// schedules a zero-delay resolve event that recomputes them and
  /// re-arms the completion event.  Progress never integrates across a
  /// dirty window: time cannot advance past the resolve event.
  void mark_rates_dirty();
  /// Runs the deferred recompute now if the rates are stale (rate
  /// queries between a mutation and its resolve event land here).
  /// While the rates are current, active_ is in creation order and
  /// holds no retired slot.
  void ensure_rates_current() const;
  void reschedule_completion();
  void on_completion_event();

  Engine* engine_;
  std::vector<Link> links_;
  std::uint64_t next_seq_ = 0;
  Time last_progress_time_ = 0.0;
  EventId completion_event_ = 0;
  bool completion_scheduled_ = false;
  mutable bool rates_dirty_ = false;
  bool resolve_scheduled_ = false;

  // Slot-indexed flow storage with a free list.  `active_` holds the
  // transferring slots; its first `ordered_` entries are in creation
  // order (the iteration and completion-callback order the original
  // std::map-keyed model used, preserved for determinism), the rest are
  // activations appended since.  `retired_` counts aborted slots still
  // listed there.
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;
  std::size_t ordered_ = 0;
  std::size_t retired_ = 0;
  std::uint64_t flows_aborted_ = 0;

  // Incrementally maintained per-link state.
  std::vector<std::uint32_t> traversals_;    ///< active traversal count
  std::vector<std::uint32_t> active_links_;  ///< links with traversals > 0
  std::vector<std::uint32_t> link_pos_;      ///< index into active_links_
  std::array<std::uint32_t, kLinkClassCount> class_active_ = {};

  // Progressive-filling scratch, reused across recompute_rates() calls.
  std::vector<double> residual_;
  std::vector<double> weight_;
  std::vector<double> share_;  ///< residual / weight per level (+inf at 0)
  std::vector<Flow*> unfrozen_;
  std::vector<Flow*> still_unfrozen_;
  std::vector<Flow*> frozen_scratch_;  ///< decide-phase output per level

  // Scratch reused across calls: the merge buffer of
  // restore_active_order() and the completion batch of
  // on_completion_event().  on_completion_event() cannot re-enter itself
  // (events fire only from the engine loop), so reuse is safe even when
  // completion callbacks start or abort flows.
  std::vector<std::uint32_t> merge_scratch_;
  std::vector<std::uint32_t> finished_slots_;
  std::vector<std::function<void(Time)>> finished_callbacks_;
};

}  // namespace pvc::sim
