#pragma once
// Whole-node simulator: devices, link graph, queues, memory.
//
// NodeSim instantiates the discrete-event model of one system (Aurora,
// Dawn, JLSE-H100 or JLSE-MI250): a compute queue per subdevice, the
// capacitated link graph (PCIe per card, host root-complex aggregates,
// MDFI stack pairs, Xe-Link / NVLink / Infinity-Fabric remote pairs, and
// the optional node-wide fabric ceiling), plus USM memory accounting.
//
// The link graph encodes the effects the paper measures:
//  * both stacks of a PVC share the first stack's PCIe link (§II), so
//    "One Stack" and "One PVC" PCIe rows coincide while per-rank rates
//    halve at full node;
//  * a card's bidirectional PCIe total sits below 2x unidirectional;
//  * host-side aggregates cap full-node transfer scaling (§IV-B4);
//  * remote Xe-Link pairs are slower than PCIe (§IV-B7), and cross-plane
//    pairs take a two-hop route (§IV-A4).

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "arch/peaks.hpp"
#include "arch/topology.hpp"
#include "runtime/memory.hpp"
#include "sim/compute_queue.hpp"
#include "sim/engine.hpp"
#include "sim/flow_network.hpp"
#include "sim/trace.hpp"

namespace pvc::rt {

/// One simulated node.
class NodeSim {
 public:
  explicit NodeSim(arch::NodeSpec spec);
  NodeSim(const NodeSim&) = delete;
  NodeSim& operator=(const NodeSim&) = delete;

  [[nodiscard]] const arch::NodeSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::FlowNetwork& network() noexcept { return network_; }
  [[nodiscard]] MemoryManager& memory() noexcept { return memory_; }

  /// Timeline recorder (disabled by default; enable before submitting
  /// work to capture kernels and transfers for chrome://tracing).
  [[nodiscard]] sim::TraceRecorder& trace() noexcept { return trace_; }

  /// Flat subdevice count (ranks in "explicit scaling" mode).
  [[nodiscard]] int device_count() const noexcept;
  [[nodiscard]] sim::ComputeQueue& compute_queue(int device);

  /// Concurrency the power governor assumes for kernel pricing.  Defaults
  /// to a single active subdevice; benches set it to match their scope.
  void set_activity(arch::Activity act) { activity_ = act; }
  [[nodiscard]] arch::Activity activity() const noexcept { return activity_; }

  /// Card / stack decomposition of a flat device index.
  [[nodiscard]] int card_of(int device) const;
  [[nodiscard]] int stack_of(int device) const;

  /// The Xe-Link plane topology (only meaningful for 2-stack cards with
  /// more than one card; nullopt otherwise).
  [[nodiscard]] const std::optional<arch::XeLinkTopology>& topology()
      const noexcept {
    return topology_;
  }

  // --- transfers -----------------------------------------------------------

  /// Host-to-device transfer of `bytes` to `device`.
  sim::FlowId transfer_h2d(int device, double bytes,
                           std::function<void(sim::Time)> done = {});
  /// Device-to-host transfer.
  sim::FlowId transfer_d2h(int device, double bytes,
                           std::function<void(sim::Time)> done = {});
  /// Device-to-device transfer, routed per the node topology.
  sim::FlowId transfer_d2d(int src_device, int dst_device, double bytes,
                           std::function<void(sim::Time)> done = {});

  /// Route classification for a device pair (diagnostics / tests).
  [[nodiscard]] arch::RouteKind d2d_route_kind(int src_device,
                                               int dst_device) const;

  // --- fault state (armed by fault::Injector, docs/ROBUSTNESS.md) ----------

  /// Downs (or restores) the Xe-Link between two remote subdevices.
  /// New transfers on the pair reroute through host staging (PCIe D2H +
  /// H2D with a store-and-forward penalty); in-flight flows are left to
  /// crawl at the degraded rate set by set_xelink_degradation.  Two
  /// stacks of one card share MDFI, not an Xe-Link: naming them throws
  /// ErrorCode::InvalidArgument, as set_xelink_degradation does.
  void set_xelink_down(int a_device, int b_device, bool down);
  [[nodiscard]] bool xelink_down(int a_device, int b_device) const;

  /// Scales the pair link between two remote subdevices to `factor` ×
  /// healthy capacity (link retraining windows); factor in (0, 1].
  void set_xelink_degradation(int a_device, int b_device, double factor);

  /// Bandwidth penalty of the host-staging fallback route, as a factor
  /// of the slower PCIe direction (default 0.2: store-and-forward
  /// through host DDR with two PCIe crossings and a host memcpy).  Must
  /// be set before the first reroute materialises the staging link.
  void set_reroute_penalty(double factor);

  /// Runs the event calendar dry; returns the final simulated time.
  sim::Time run() { return engine_.run(); }

 private:
  struct CardLinks {
    sim::LinkId pcie_h2d;
    sim::LinkId pcie_d2h;
    sim::LinkId pcie_shared;
    // MDFI, valid only for 2-subdevice cards.
    sim::LinkId mdfi_fwd = 0;  // stack0 -> stack1
    sim::LinkId mdfi_rev = 0;  // stack1 -> stack0
    sim::LinkId mdfi_shared = 0;
    bool has_mdfi = false;
  };

  void build_links();
  /// Throws unless `a_device` and `b_device` are distinct subdevices on
  /// different cards: the two ends of an Xe-Link.
  void check_xelink_pair(int a_device, int b_device) const;
  [[nodiscard]] std::vector<sim::LinkId> pcie_route(int device, bool h2d);
  sim::LinkId pair_link(int a_device, int b_device);
  sim::LinkId staging_link();
  [[nodiscard]] std::vector<sim::LinkId> reroute_via_host(int src_device,
                                                          int dst_device);
  void append_mdfi(std::vector<sim::LinkId>& route, int card,
                   int from_stack);

  /// Wraps `done` so the finished transfer lands on the trace timeline.
  std::function<void(sim::Time)> traced(const char* kind, int device,
                                        std::function<void(sim::Time)> done);

  arch::NodeSpec spec_;
  sim::Engine engine_;
  sim::FlowNetwork network_;
  MemoryManager memory_;
  sim::TraceRecorder trace_;
  arch::Activity activity_{1, 1};

  std::vector<std::unique_ptr<sim::ComputeQueue>> queues_;
  std::optional<arch::XeLinkTopology> topology_;

  std::vector<CardLinks> cards_;
  sim::LinkId host_h2d_ = 0;
  sim::LinkId host_d2h_ = 0;
  sim::LinkId host_bidir_ = 0;
  std::vector<sim::LinkId> remote_egress_;  // per subdevice
  std::vector<sim::LinkId> remote_ingress_;
  bool has_remote_fabric_ = false;
  sim::LinkId fabric_agg_ = 0;
  bool has_fabric_agg_ = false;
  std::map<std::pair<int, int>, sim::LinkId> pair_links_;

  // Fault state (docs/ROBUSTNESS.md).
  std::set<std::pair<int, int>> downed_xelinks_;
  double reroute_penalty_ = 0.2;
  sim::LinkId staging_link_ = 0;
  bool has_staging_link_ = false;
};

}  // namespace pvc::rt
