#include "runtime/node_sim.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace pvc::rt {

namespace {

struct NodeFaultMetrics {
  obs::Counter* reroutes;
  obs::Counter* xelink_down_events;
};

NodeFaultMetrics& node_fault_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local NodeFaultMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    NodeFaultMetrics n;
    n.reroutes = &reg.counter(
        "net.reroutes", "transfers",
        "transfers rerouted around a downed Xe-Link via host staging");
    n.xelink_down_events = &reg.counter(
        "fault.xelink_events", "events", "Xe-Link down/up state changes");
    return n;
  }();
  return m;
}

}  // namespace

NodeSim::NodeSim(arch::NodeSpec spec)
    : spec_(std::move(spec)), network_(engine_), memory_(spec_) {
  ensure(spec_.card_count >= 1, "NodeSim: node needs at least one card");
  ensure(spec_.card.subdevice_count >= 1,
         "NodeSim: card needs at least one subdevice");

  for (int d = 0; d < device_count(); ++d) {
    queues_.push_back(std::make_unique<sim::ComputeQueue>(
        engine_, spec_.system_name + "/dev" + std::to_string(d)));
  }

  if (spec_.card.subdevice_count == 2 && spec_.card_count > 1) {
    if (spec_.card_count == 6) {
      topology_ = arch::XeLinkTopology::aurora();
    } else if (spec_.card_count == 4 && spec_.system_name == "Dawn") {
      topology_ = arch::XeLinkTopology::dawn();
    } else {
      // Generic alternating-plane layout for other 2-stack systems.
      std::vector<bool> flipped;
      for (int g = 0; g < spec_.card_count; ++g) {
        flipped.push_back(g % 2 == 1);
      }
      topology_ = arch::XeLinkTopology(spec_.card_count, std::move(flipped));
    }
  }

  build_links();
}

int NodeSim::device_count() const noexcept {
  return spec_.total_subdevices();
}

sim::ComputeQueue& NodeSim::compute_queue(int device) {
  ensure(device >= 0 && device < device_count(), "NodeSim: bad device index");
  return *queues_[static_cast<std::size_t>(device)];
}

int NodeSim::card_of(int device) const {
  ensure(device >= 0 && device < device_count(), "NodeSim: bad device index");
  return device / spec_.card.subdevice_count;
}

int NodeSim::stack_of(int device) const {
  ensure(device >= 0 && device < device_count(), "NodeSim: bad device index");
  return device % spec_.card.subdevice_count;
}

void NodeSim::build_links() {
  using sim::LinkClass;
  const auto& io = spec_.host_io;
  host_h2d_ = network_.add_link(LinkClass::Host, io.h2d_total_bps);
  host_d2h_ = network_.add_link(LinkClass::Host, io.d2h_total_bps);
  host_bidir_ = network_.add_link(LinkClass::Host, io.bidir_total_bps);

  const auto& card = spec_.card;
  for (int c = 0; c < spec_.card_count; ++c) {
    CardLinks links{};
    links.pcie_h2d = network_.add_link(LinkClass::Pcie, card.pcie.h2d_bps);
    links.pcie_d2h = network_.add_link(LinkClass::Pcie, card.pcie.d2h_bps);
    links.pcie_shared =
        network_.add_link(LinkClass::Pcie, card.pcie.bidir_total_bps);
    if (card.subdevice_count == 2) {
      links.has_mdfi = true;
      links.mdfi_fwd =
          network_.add_link(LinkClass::Mdfi, card.local_link_uni_bps);
      links.mdfi_rev =
          network_.add_link(LinkClass::Mdfi, card.local_link_uni_bps);
      links.mdfi_shared =
          network_.add_link(LinkClass::Mdfi, card.local_link_pair_total_bps);
    }
    cards_.push_back(links);
  }

  has_remote_fabric_ =
      spec_.card_count > 1 && spec_.fabric.remote_uni_bps > 0.0;
  if (has_remote_fabric_) {
    for (int d = 0; d < device_count(); ++d) {
      remote_egress_.push_back(
          network_.add_link(LinkClass::XeLink, spec_.fabric.remote_uni_bps));
      remote_ingress_.push_back(
          network_.add_link(LinkClass::XeLink, spec_.fabric.remote_uni_bps));
    }
  }
  if (spec_.fabric.aggregate_bps > 0.0) {
    has_fabric_agg_ = true;
    fabric_agg_ =
        network_.add_link(LinkClass::FabricAgg, spec_.fabric.aggregate_bps);
  }
}

void NodeSim::append_mdfi(std::vector<sim::LinkId>& route, int card,
                          int from_stack) {
  const auto& links = cards_[static_cast<std::size_t>(card)];
  ensure(links.has_mdfi, "NodeSim: MDFI requested on single-stack card");
  route.push_back(from_stack == 0 ? links.mdfi_fwd : links.mdfi_rev);
  route.push_back(links.mdfi_shared);
}

std::vector<sim::LinkId> NodeSim::pcie_route(int device, bool h2d) {
  const int card = card_of(device);
  const int stack = stack_of(device);
  const auto& links = cards_[static_cast<std::size_t>(card)];
  std::vector<sim::LinkId> route;
  route.push_back(h2d ? host_h2d_ : host_d2h_);
  route.push_back(host_bidir_);
  route.push_back(h2d ? links.pcie_h2d : links.pcie_d2h);
  route.push_back(links.pcie_shared);
  // The second stack reaches the host through the first stack's PCIe
  // link via the stack-to-stack interconnect (paper §II).
  if (stack != 0 && links.has_mdfi) {
    append_mdfi(route, card, h2d ? 0 : 1);
  }
  return route;
}

void NodeSim::check_xelink_pair(int a_device, int b_device) const {
  ensure(a_device >= 0 && a_device < device_count() && b_device >= 0 &&
             b_device < device_count() && a_device != b_device,
         "NodeSim: bad Xe-Link device pair");
  if (card_of(a_device) == card_of(b_device)) {
    raise(ErrorCode::InvalidArgument,
          "NodeSim: subdevices " + std::to_string(a_device) + " and " +
              std::to_string(b_device) + " are both stacks of card " +
              std::to_string(card_of(a_device)) + " of " + spec_.system_name +
              ", which MDFI joins; an Xe-Link joins different cards");
  }
}

void NodeSim::set_xelink_down(int a_device, int b_device, bool down) {
  check_xelink_pair(a_device, b_device);
  const auto key = std::minmax(a_device, b_device);
  const bool changed =
      down ? downed_xelinks_.insert(key).second
           : downed_xelinks_.erase(key) == 1;
  if (changed) {
    node_fault_metrics().xelink_down_events->add(1);
  }
}

bool NodeSim::xelink_down(int a_device, int b_device) const {
  return downed_xelinks_.count(std::minmax(a_device, b_device)) != 0;
}

void NodeSim::set_xelink_degradation(int a_device, int b_device,
                                     double factor) {
  check_xelink_pair(a_device, b_device);
  ensure(has_remote_fabric_, [&] {
    return "NodeSim: no remote fabric to degrade on " + spec_.system_name;
  });
  network_.set_link_scale(pair_link(a_device, b_device), factor);
}

void NodeSim::set_reroute_penalty(double factor) {
  ensure(factor > 0.0 && factor <= 1.0,
         "NodeSim: reroute penalty must be in (0, 1]");
  ensure(!has_staging_link_,
         "NodeSim: reroute penalty must be set before the first reroute");
  reroute_penalty_ = factor;
}

sim::LinkId NodeSim::staging_link() {
  if (!has_staging_link_) {
    // Store-and-forward bottleneck of the host fallback path: the
    // payload crosses PCIe twice and host DDR once, so the effective
    // rate is a penalised fraction of the slower PCIe direction.
    const double pcie_floor =
        std::min(spec_.card.pcie.h2d_bps, spec_.card.pcie.d2h_bps);
    staging_link_ = network_.add_link(sim::LinkClass::Host,
                                      reroute_penalty_ * pcie_floor);
    has_staging_link_ = true;
  }
  return staging_link_;
}

std::vector<sim::LinkId> NodeSim::reroute_via_host(int src_device,
                                                   int dst_device) {
  // Downed Xe-Link: fall back to the PCIe/host path (D2H on the source
  // card, host staging, H2D on the destination card).  The flow crosses
  // both PCIe directions concurrently — a pipelined staged copy — with
  // the staging link as the penalised bottleneck.
  node_fault_metrics().reroutes->add(1);
  std::vector<sim::LinkId> route = pcie_route(src_device, /*h2d=*/false);
  const auto up = pcie_route(dst_device, /*h2d=*/true);
  route.insert(route.end(), up.begin(), up.end());
  route.push_back(staging_link());
  return route;
}

sim::LinkId NodeSim::pair_link(int a_device, int b_device) {
  const auto key = std::minmax(a_device, b_device);
  const auto it = pair_links_.find(key);
  if (it != pair_links_.end()) {
    return it->second;
  }
  const sim::LinkId id = network_.add_link(
      sim::LinkClass::XeLink, spec_.fabric.remote_pair_total_bps);
  pair_links_.emplace(key, id);
  return id;
}

std::function<void(sim::Time)> NodeSim::traced(
    const char* kind, int device, std::function<void(sim::Time)> done) {
  if (!trace_.enabled()) {
    return done;
  }
  const sim::Time start = engine_.now();
  const std::string track = "dev" + std::to_string(device) + "/transfer";
  return [this, track, kind = std::string(kind), start,
          done = std::move(done)](sim::Time t) {
    trace_.record(track, kind, start, t);
    if (done) {
      done(t);
    }
  };
}

sim::FlowId NodeSim::transfer_h2d(int device, double bytes,
                                  std::function<void(sim::Time)> done) {
  return network_.start_flow(pcie_route(device, /*h2d=*/true), bytes,
                             spec_.card.pcie.latency_s,
                             traced("h2d", device, std::move(done)));
}

sim::FlowId NodeSim::transfer_d2h(int device, double bytes,
                                  std::function<void(sim::Time)> done) {
  return network_.start_flow(pcie_route(device, /*h2d=*/false), bytes,
                             spec_.card.pcie.latency_s,
                             traced("d2h", device, std::move(done)));
}

arch::RouteKind NodeSim::d2d_route_kind(int src_device,
                                        int dst_device) const {
  ensure(src_device >= 0 && src_device < device_count() && dst_device >= 0 &&
             dst_device < device_count(),
         "NodeSim: bad device index");
  if (src_device == dst_device) {
    return arch::RouteKind::SameStack;
  }
  if (card_of(src_device) == card_of(dst_device)) {
    return arch::RouteKind::LocalMdfi;
  }
  if (topology_) {
    const arch::StackId src{card_of(src_device), stack_of(src_device)};
    const arch::StackId dst{card_of(dst_device), stack_of(dst_device)};
    return topology_->route(src, dst).kind;
  }
  return arch::RouteKind::XeLinkDirect;
}

sim::FlowId NodeSim::transfer_d2d(int src_device, int dst_device,
                                  double bytes,
                                  std::function<void(sim::Time)> done) {
  const arch::RouteKind kind = d2d_route_kind(src_device, dst_device);

  if (kind == arch::RouteKind::SameStack) {
    // Local copy at stream bandwidth (read + write of the payload).
    const double bw = arch::subdevice_stream_bandwidth(spec_);
    const double duration = 2.0 * bytes / bw;
    return network_.start_flow({}, 0.0, duration, std::move(done));
  }

  std::vector<sim::LinkId> route;
  double latency = 0.0;

  if (kind == arch::RouteKind::LocalMdfi) {
    const int card = card_of(src_device);
    append_mdfi(route, card, stack_of(src_device));
    if (has_fabric_agg_) {
      route.push_back(fabric_agg_);
    }
    latency = spec_.card.local_link_latency_s;
    return network_.start_flow(std::move(route), bytes, latency,
                               std::move(done));
  }

  ensure(has_remote_fabric_, ErrorCode::LinkDown, [&] {
    return "NodeSim: no remote fabric between devices on " +
           spec_.system_name;
  });
  latency = spec_.fabric.latency_s;

  if (kind == arch::RouteKind::XeLinkDirect) {
    if (xelink_down(src_device, dst_device)) {
      return network_.start_flow(reroute_via_host(src_device, dst_device),
                                 bytes, 2.0 * spec_.card.pcie.latency_s,
                                 std::move(done));
    }
    route.push_back(remote_egress_[static_cast<std::size_t>(src_device)]);
    route.push_back(remote_ingress_[static_cast<std::size_t>(dst_device)]);
    route.push_back(pair_link(src_device, dst_device));
  } else {
    // Two-hop: Xe-Link to the destination card's partner stack, then
    // MDFI across that card (paper §IV-A4's first driver option).
    const int dst_card = card_of(dst_device);
    const int partner_stack = 1 - stack_of(dst_device);
    const int partner = dst_card * spec_.card.subdevice_count + partner_stack;
    if (xelink_down(src_device, partner)) {
      return network_.start_flow(reroute_via_host(src_device, dst_device),
                                 bytes, 2.0 * spec_.card.pcie.latency_s,
                                 std::move(done));
    }
    route.push_back(remote_egress_[static_cast<std::size_t>(src_device)]);
    route.push_back(remote_ingress_[static_cast<std::size_t>(partner)]);
    route.push_back(pair_link(src_device, partner));
    append_mdfi(route, dst_card, partner_stack);
    latency += spec_.card.local_link_latency_s;
  }
  if (has_fabric_agg_) {
    route.push_back(fabric_agg_);
  }
  return network_.start_flow(std::move(route), bytes, latency,
                             std::move(done));
}

}  // namespace pvc::rt
