#include "sim/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace pvc::sim {

namespace {
// Flows whose remaining volume drops below this are considered done
// (guards against floating-point residue after progress integration).
constexpr double kEpsilonBytes = 1e-6;

/// Handles into the active registry, re-resolved whenever the calling
/// thread's registry changes (ParallelSweep installs a per-worker
/// obs::ScopedRegistry), so the per-flow cost stays a pointer bump plus
/// one thread-local comparison.  Every name registers up front, making
/// the emitted-name set deterministic (docs/OBSERVABILITY.md).
struct NetMetrics {
  obs::Counter* flows_started;
  obs::Counter* flows_completed;
  obs::Counter* bytes_total;
  obs::Counter* contention_events;
  obs::Counter* link_degradations;
  obs::Counter* class_bytes[kLinkClassCount];
  obs::Gauge* flow_seconds;
  obs::Gauge* class_flow_seconds[kLinkClassCount];
};

NetMetrics& net_metrics() {
  // Rebinds whenever the thread's active registry changes.  Keyed on
  // the registry's unique id: a new registry (per-sweep-task)
  // can reuse a freed one's address, which an address compare mistakes
  // for "still bound", leaving m pointing at dead handles.
  thread_local NetMetrics m;
  thread_local std::uint64_t bound = 0;
  auto& reg = obs::Registry::active();
  if (bound != reg.id()) {
    m.flows_started = &reg.counter("net.flows_started", "flows",
                                   "flows offered to the network");
    m.flows_completed = &reg.counter("net.flows_completed", "flows",
                                     "flows fully delivered");
    m.bytes_total = &reg.counter(
        "net.bytes_total", "bytes", "payload bytes offered to link routes");
    m.contention_events =
        &reg.counter("net.contention_events", "events",
                     "rate recomputations with >1 traversal on some link");
    m.link_degradations =
        &reg.counter("net.link_degradations", "events",
                     "set_link_scale calls that changed a link's scale");
    m.flow_seconds = &reg.gauge("net.flow_seconds", "flow-seconds",
                                "integral of active flow count over time");
    for (std::size_t c = 0; c < kLinkClassCount; ++c) {
      const std::string cls = link_class_name(static_cast<LinkClass>(c));
      m.class_bytes[c] =
          &reg.counter("net." + cls + ".bytes", "bytes",
                       "payload bytes routed over " + cls + " links");
      m.class_flow_seconds[c] =
          &reg.gauge("net." + cls + ".flow_seconds", "flow-seconds",
                     "time flows spent crossing " + cls + " links");
    }
    bound = reg.id();
  }
  return m;
}

}  // namespace

const char* link_class_name(LinkClass c) {
  switch (c) {
    case LinkClass::Pcie:
      return "pcie";
    case LinkClass::Host:
      return "host";
    case LinkClass::Mdfi:
      return "mdfi";
    case LinkClass::XeLink:
      return "xelink";
    case LinkClass::FabricAgg:
      return "fabric_agg";
    case LinkClass::Other:
      return "other";
  }
  return "?";
}

LinkId FlowNetwork::add_link(LinkClass cls, double capacity_bps) {
  ensure(capacity_bps > 0.0, "FlowNetwork: link capacity must be positive");
  ensure(links_.size() < kNoSlot, ErrorCode::InvalidArgument,
         "FlowNetwork: more than 2^32 - 1 links (routes store 32-bit ids)");
  links_.push_back(Link{capacity_bps, cls});
  traversals_.push_back(0);
  link_pos_.push_back(kNoSlot);
  residual_.push_back(0.0);
  weight_.push_back(0.0);
  share_.push_back(0.0);
  return links_.size() - 1;
}

const Link& FlowNetwork::link(LinkId id) const {
  ensure(id < links_.size(), "FlowNetwork: bad link id");
  return links_[id];
}

void FlowNetwork::set_link_scale(LinkId id, double scale) {
  ensure(id < links_.size(), "FlowNetwork: bad link id");
  ensure(scale > 0.0 && scale <= 1.0,
         "FlowNetwork: link scale must be in (0, 1] — model dead links by "
         "rerouting, not zero capacity");
  Link& link = links_[id];
  if (link.scale == scale) {
    return;
  }
  // Integrate progress at the old rates before the capacity changes,
  // then re-share every active flow under the new effective capacity.
  advance_progress();
  link.scale = scale;
  net_metrics().link_degradations->add(1);
  mark_rates_dirty();
}

double FlowNetwork::link_scale(LinkId id) const {
  ensure(id < links_.size(), "FlowNetwork: bad link id");
  return links_[id].scale;
}

FlowId FlowNetwork::start_flow(std::span<const LinkId> route, double bytes,
                               double latency_s,
                               std::function<void(Time)> on_complete) {
  ensure(bytes >= 0.0, "FlowNetwork: negative flow size");
  ensure(latency_s >= 0.0, "FlowNetwork: negative latency");
  ensure(route.size() <= kMaxRouteLinks, ErrorCode::InvalidArgument, [&] {
    return "FlowNetwork: a route of " + std::to_string(route.size()) +
           " links is longer than the limit of " +
           std::to_string(kMaxRouteLinks);
  });
  for (LinkId id : route) {
    ensure(id < links_.size(), "FlowNetwork: route uses unknown link");
  }
  const std::uint32_t slot = take_slot();
  Flow& flow = slots_[slot];
  flow.seq = next_seq_++;
  flow.remaining = bytes;
  flow.rate = 0.0;
  flow.on_complete = std::move(on_complete);
  flow.class_mask = 0;
  flow.hops = static_cast<std::uint8_t>(route.size());
  for (std::size_t h = 0; h < route.size(); ++h) {
    flow.route[h] = static_cast<std::uint32_t>(route[h]);
    flow.class_mask |= static_cast<std::uint8_t>(
        1u << static_cast<unsigned>(links_[route[h]].cls));
  }
  flow.state = State::Latent;
  const FlowId id = flow_id(slot);
  auto& metrics = net_metrics();
  metrics.flows_started->add(1);

  if (route.empty() || bytes <= kEpsilonBytes) {
    // Pure-latency operation: end_latency() completes it, unless
    // abort_flow() cancels it first.
    engine_->schedule_after(latency_s, [this, id] { end_latency(id); });
    return id;
  }

  // Account offered bytes once per flow, and once per distinct link
  // class the route crosses.
  const auto payload = static_cast<std::uint64_t>(std::llround(bytes));
  metrics.bytes_total->add(payload);
  for (std::size_t c = 0; c < kLinkClassCount; ++c) {
    if (flow.class_mask & (1u << c)) {
      metrics.class_bytes[c]->add(payload);
    }
  }

  if (latency_s > 0.0) {
    engine_->schedule_after(latency_s, [this, id] { end_latency(id); });
  } else {
    activate(slot);
  }
  return id;
}

void FlowNetwork::reserve_flows(std::size_t flows) {
  slots_.reserve(slots_.size() - free_slots_.size() + flows);
}

std::uint32_t FlowNetwork::take_slot() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  ++slots_[slot].generation;  // stales every id the slot handed out
  return slot;
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  Flow& flow = slots_[slot];
  flow.state = State::Free;
  flow.on_complete = nullptr;
  free_slots_.push_back(slot);
}

std::uint32_t FlowNetwork::live_slot(FlowId id) const noexcept {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) {
    return kNoSlot;
  }
  const Flow& flow = slots_[slot];
  const bool live = flow.state == State::Latent || flow.state == State::Active;
  return live && flow.generation == (id >> 32) ? slot : kNoSlot;
}

void FlowNetwork::end_latency(FlowId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot || slots_[slot].state != State::Latent) {
    return;  // aborted during the latency phase
  }
  Flow& flow = slots_[slot];
  if (flow.hops > 0 && flow.remaining > kEpsilonBytes) {
    activate(slot);
    return;
  }
  auto cb = std::move(flow.on_complete);
  release_slot(slot);
  net_metrics().flows_completed->add(1);
  if (cb) {
    cb(engine_->now());
  }
}

bool FlowNetwork::abort_flow(FlowId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) {
    return false;
  }
  if (slots_[slot].state == State::Latent) {
    // Still in the latency phase: the pending end_latency() event finds
    // the slot released (or re-taken, under a new generation) and bails.
    release_slot(slot);
    ++flows_aborted_;
    return true;
  }
  // Integrate progress at the current rates and unlink the flow;
  // survivors re-share the freed capacity at this same instant.  The
  // slot leaves active_ (and its callback, which never fires, is
  // dropped) in the compaction that instant's rate solve runs.
  advance_progress();
  unlink(slot);
  slots_[slot].state = State::Retired;
  ++retired_;
  mark_rates_dirty();
  ++flows_aborted_;
  return true;
}

void FlowNetwork::activate(std::uint32_t slot) {
  advance_progress();

  Flow& f = slots_[slot];
  f.state = State::Active;

  // Append; a flow that activates ahead of an older one (a shorter
  // latency) leaves active_ out of creation order until
  // restore_active_order() merges it back.
  if (ordered_ == active_.size() &&
      (active_.empty() || slots_[active_.back()].seq < f.seq)) {
    ++ordered_;
  }
  active_.push_back(slot);

  // One step per traversal: a link crossed twice counts twice.
  for (const std::uint32_t l : f.links()) {
    if (traversals_[l]++ == 0) {
      link_pos_[l] = static_cast<std::uint32_t>(active_links_.size());
      active_links_.push_back(l);
    }
  }
  for (std::size_t c = 0; c < kLinkClassCount; ++c) {
    if (f.class_mask & (1u << c)) {
      ++class_active_[c];
    }
  }

  mark_rates_dirty();
}

void FlowNetwork::unlink(std::uint32_t slot) {
  const Flow& f = slots_[slot];
  for (const std::uint32_t l : f.links()) {
    if (--traversals_[l] == 0) {
      const std::uint32_t pos = link_pos_[l];
      active_links_[pos] = active_links_.back();
      link_pos_[active_links_[pos]] = pos;
      active_links_.pop_back();
      link_pos_[l] = kNoSlot;
    }
  }
  for (std::size_t c = 0; c < kLinkClassCount; ++c) {
    if (f.class_mask & (1u << c)) {
      --class_active_[c];
    }
  }
}

void FlowNetwork::restore_active_order() {
  if (ordered_ == active_.size()) {
    return;
  }
  const auto by_seq = [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].seq < slots_[b].seq;
  };
  const auto mid = active_.begin() + static_cast<std::ptrdiff_t>(ordered_);
  // Activations that share an instant usually arrive in creation order
  // (latency events at one timestamp fire in scheduling order), so the
  // tail needs a sort only when a zero-latency start cut in.
  if (!std::is_sorted(mid, active_.end(), by_seq)) {
    std::sort(mid, active_.end(), by_seq);
  }
  merge_scratch_.resize(active_.size());
  std::merge(active_.begin(), mid, mid, active_.end(), merge_scratch_.begin(),
             by_seq);
  active_.swap(merge_scratch_);
  ordered_ = active_.size();
}

template <typename Done>
void FlowNetwork::compact_active(Done&& done) {
  auto out = active_.begin();
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].state == State::Retired) {
      release_slot(slot);
    } else if (done(slot)) {
      finished_slots_.push_back(slot);
    } else {
      *out++ = slot;
    }
  }
  active_.erase(out, active_.end());
  ordered_ = active_.size();
  retired_ = 0;
}

void FlowNetwork::advance_progress() {
  const Time now = engine_->now();
  const double dt = now - last_progress_time_;
  if (dt > 0.0 && !active_.empty()) {
    auto& metrics = net_metrics();
    metrics.flow_seconds->add(dt * static_cast<double>(active_flows()));
    // Per-class flow-seconds batch over the maintained active-flow
    // counts — one gauge bump per class instead of flows × classes.
    for (std::size_t c = 0; c < kLinkClassCount; ++c) {
      if (class_active_[c] > 0) {
        metrics.class_flow_seconds[c]->add(
            dt * static_cast<double>(class_active_[c]));
      }
    }
    for (const std::uint32_t slot : active_) {
      Flow& flow = slots_[slot];
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    }
  }
  last_progress_time_ = now;
}

void FlowNetwork::recompute_rates() {
  restore_active_order();
  if (retired_ > 0) {
    compact_active([](std::uint32_t) { return false; });
  }
  if (active_.empty()) {
    return;
  }
  // Progressive filling with per-link traversal multiplicity.  The
  // scratch is seeded from the incrementally maintained traversal
  // counts, and every loop walks the compact active-link list — links
  // with no traffic are never touched, and nothing allocates.
  bool contended = false;
  for (const LinkId l : active_links_) {
    residual_[l] = links_[l].effective_capacity_bps();
    weight_[l] = static_cast<double>(traversals_[l]);
    contended = contended || traversals_[l] > 1;
  }
  if (contended) {
    net_metrics().contention_events->add(1);
  }

  unfrozen_.clear();
  for (const std::uint32_t slot : active_) {  // creation order
    Flow& flow = slots_[slot];
    flow.rate = 0.0;
    unfrozen_.push_back(&flow);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (!unfrozen_.empty()) {
    // Bottleneck link: smallest residual capacity per unit weight.  Each
    // link's share is divided once per level and kept for the decide
    // phase below, which compares the same double.
    double best_share = kInf;
    for (const std::uint32_t l : active_links_) {
      const double share = weight_[l] > 0.0 ? residual_[l] / weight_[l] : kInf;
      share_[l] = share;
      best_share = std::min(best_share, share);
    }
    ensure(best_share < kInf,
           "FlowNetwork: active flow with no weighted links");
    best_share = std::max(best_share, 0.0);

    // Decide phase: find every flow whose route crosses a bottleneck
    // link, reading only the level's pre-freeze residuals/weights.  A
    // flow's rate equals the per-traversal share (a flow crossing a
    // bottleneck twice still moves bytes end-to-end at one share; each
    // traversal separately charges the link, which `weight_` already
    // accounts for).  Keeping the decision reads separate from the
    // apply writes makes the level a pure function of its starting
    // state, independent of the order flows are visited in.
    const double bottleneck = best_share * (1.0 + 1e-12);
    still_unfrozen_.clear();
    frozen_scratch_.clear();
    for (Flow* flow : unfrozen_) {
      bool bottlenecked = false;
      for (const std::uint32_t l : flow->links()) {
        if (share_[l] <= bottleneck) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        frozen_scratch_.push_back(flow);
      } else {
        still_unfrozen_.push_back(flow);
      }
    }
    ensure(!frozen_scratch_.empty(),
           "FlowNetwork: progressive filling failed to converge");

    // Apply phase: every frozen route entry subtracts the same
    // best_share (and unit weight), so per-link results depend only on
    // the subtraction count, never on flow order.
    for (Flow* flow : frozen_scratch_) {
      flow->rate = best_share;
      for (const std::uint32_t l : flow->links()) {
        residual_[l] -= best_share;
        weight_[l] -= 1.0;
      }
    }
    unfrozen_.swap(still_unfrozen_);
  }
}

void FlowNetwork::mark_rates_dirty() {
  rates_dirty_ = true;
  if (resolve_scheduled_) {
    return;
  }
  resolve_scheduled_ = true;
  // Zero-delay event: it fires after every other mutation at this
  // timestamp (same-time FIFO order), collapsing a burst of flow
  // starts/finishes into one progressive-filling pass.  The final rates
  // are a pure function of the surviving active set, so batching is
  // bit-identical to solving after every mutation.
  engine_->schedule_at(engine_->now(), [this] {
    resolve_scheduled_ = false;
    ensure_rates_current();
    reschedule_completion();
  });
}

void FlowNetwork::ensure_rates_current() const {
  if (rates_dirty_) {
    rates_dirty_ = false;
    const_cast<FlowNetwork*>(this)->recompute_rates();
  }
}

void FlowNetwork::reschedule_completion() {
  if (completion_scheduled_) {
    engine_->cancel(completion_event_);
    completion_scheduled_ = false;
  }
  if (active_.empty()) {
    return;
  }
  double earliest = std::numeric_limits<double>::infinity();
  for (const std::uint32_t slot : active_) {
    const Flow& flow = slots_[slot];
    if (flow.rate > 0.0) {
      earliest = std::min(earliest, flow.remaining / flow.rate);
    }
  }
  ensure(earliest < std::numeric_limits<double>::infinity(),
         "FlowNetwork: all active flows are rate-starved");
  completion_event_ =
      engine_->schedule_after(earliest, [this] { on_completion_event(); });
  completion_scheduled_ = true;
}

void FlowNetwork::on_completion_event() {
  completion_scheduled_ = false;
  advance_progress();

  // One stable pass collects the finished slots in creation order (so
  // completion callbacks fire in that order) and drops them, with any
  // flow aborted at this instant, from active_.  Both collections are
  // member scratch: this path runs once per completion batch.
  restore_active_order();
  finished_slots_.clear();
  compact_active([this](std::uint32_t slot) {
    return slots_[slot].remaining <= kEpsilonBytes;
  });
  if (finished_slots_.empty()) {
    // The event fired but integration finished nothing: the minimum
    // remaining/rate rounded below one ulp of now, so the completion
    // landed on the current timestamp with dt == 0.  Left alone, the
    // resolve/completion pair would respin at this instant forever
    // (long-lived sims accumulate enough `now` that a byte residue
    // above kEpsilonBytes can still be un-representable as a time
    // advance).  Finish exactly the flows whose residue cannot advance
    // the clock — in any run that terminates without this rescue, the
    // condition never holds, so previously-valid timings are unchanged.
    const Time now_ts = engine_->now();
    compact_active([this, now_ts](std::uint32_t slot) {
      const Flow& flow = slots_[slot];
      return flow.rate > 0.0 && now_ts + flow.remaining / flow.rate == now_ts;
    });
  }
  finished_callbacks_.clear();
  for (const std::uint32_t slot : finished_slots_) {
    unlink(slot);
    finished_callbacks_.push_back(std::move(slots_[slot].on_complete));
    release_slot(slot);
  }
  mark_rates_dirty();

  net_metrics().flows_completed->add(finished_callbacks_.size());
  const Time now = engine_->now();
  for (auto& on_complete : finished_callbacks_) {
    if (on_complete) {
      on_complete(now);
    }
  }
  finished_callbacks_.clear();
}

double FlowNetwork::flow_rate(FlowId id) const {
  ensure_rates_current();
  const std::uint32_t slot = live_slot(id);
  return slot != kNoSlot && slots_[slot].state == State::Active
             ? slots_[slot].rate
             : 0.0;
}

double FlowNetwork::link_load(LinkId id) const {
  ensure(id < links_.size(), "FlowNetwork: bad link id");
  ensure_rates_current();
  double load = 0.0;
  for (const std::uint32_t slot : active_) {
    const Flow& flow = slots_[slot];
    const auto links = flow.links();
    load += flow.rate *
            static_cast<double>(std::count(links.begin(), links.end(), id));
  }
  return load;
}

std::vector<std::pair<FlowId, double>> FlowNetwork::current_rates() const {
  ensure_rates_current();
  std::vector<std::pair<FlowId, double>> out;
  out.reserve(active_.size());
  for (const std::uint32_t slot : active_) {
    out.emplace_back(flow_id(slot), slots_[slot].rate);
  }
  return out;
}

std::vector<std::pair<FlowId, double>> FlowNetwork::reference_rates() const {
  // The original from-scratch solver, kept verbatim as the oracle: fresh
  // buffers over every link, weights re-derived by walking each route.
  // The active set is re-derived too: the transferring slots of
  // active_, sorted into creation order here.
  std::vector<std::uint32_t> live;
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].state == State::Active) {
      live.push_back(slot);
    }
  }
  std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].seq < slots_[b].seq;
  });
  std::vector<double> residual(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    residual[i] = links_[i].effective_capacity_bps();
  }
  std::vector<double> weight(links_.size(), 0.0);

  struct RefFlow {
    FlowId id;
    const Flow* flow;
    double rate;
  };
  std::vector<RefFlow> all;
  all.reserve(live.size());
  for (const std::uint32_t slot : live) {
    all.push_back(RefFlow{flow_id(slot), &slots_[slot], 0.0});
    for (const std::uint32_t l : slots_[slot].links()) {
      weight[l] += 1.0;
    }
  }
  std::vector<RefFlow*> unfrozen;
  unfrozen.reserve(all.size());
  for (auto& rf : all) {
    unfrozen.push_back(&rf);
  }

  while (!unfrozen.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links_.size(); ++l) {
      if (weight[l] > 0.0) {
        best_share = std::min(best_share, residual[l] / weight[l]);
      }
    }
    ensure(best_share < std::numeric_limits<double>::infinity(),
           "FlowNetwork: active flow with no weighted links");
    best_share = std::max(best_share, 0.0);

    std::vector<RefFlow*> still_unfrozen;
    bool froze_any = false;
    for (RefFlow* rf : unfrozen) {
      bool bottlenecked = false;
      for (const std::uint32_t l : rf->flow->links()) {
        if (weight[l] > 0.0 &&
            residual[l] / weight[l] <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        rf->rate = best_share;
        froze_any = true;
        for (const std::uint32_t l : rf->flow->links()) {
          residual[l] -= best_share;
          weight[l] -= 1.0;
        }
      } else {
        still_unfrozen.push_back(rf);
      }
    }
    ensure(froze_any, "FlowNetwork: progressive filling failed to converge");
    unfrozen = std::move(still_unfrozen);
  }

  std::vector<std::pair<FlowId, double>> out;
  out.reserve(all.size());
  for (const RefFlow& rf : all) {
    out.emplace_back(rf.id, rf.rate);
  }
  return out;
}

}  // namespace pvc::sim
