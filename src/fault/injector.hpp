#pragma once
// Fault injector: arms a FaultPlan against a live simulation.
//
// The injector is the bridge between the declarative plan and the
// fault hooks the lower layers expose (docs/ROBUSTNESS.md):
//
//  * timed events (link outages/flaps, retraining windows) become
//    calendar entries on the node's engine, firing
//    NodeSim::set_xelink_down / set_xelink_degradation at their window
//    edges;
//  * `drop`/`corrupt` install a Communicator fault hook drawing from a
//    seeded Rng stream, and `retries` overrides its Resilience policy;
//  * the cluster clauses (`nicdown`, `nicdegrade`, `nodedown`,
//    `rankfail`) become calendar entries on a ClusterComm's engine.
//
// The injector owns the stream, so it must outlive the Communicator it
// is attached to — or be detach()ed first.  The message hook holds a
// weak registration token: a hook firing after its injector died raises
// a loud pvc::Error instead of dereferencing a dangling pointer.

#include <memory>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "core/rng.hpp"
#include "fault/plan.hpp"
#include "runtime/node_sim.hpp"

namespace pvc::fault {

class Injector {
 public:
  explicit Injector(FaultPlan plan);
  /// Non-copyable/movable: installed hooks track this exact instance
  /// through the registration token.
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Schedules every timed event on `node`'s engine and applies the
  /// reroute-penalty override.  Call once, before running the workload.
  void arm(rt::NodeSim& node);

  /// Schedules the cluster-scale events (`nicdown`, `nicdegrade`,
  /// `nodedown`, `rankfail`) on `cluster`'s engine.  Events naming a
  /// node, NIC, or rank the cluster does not have are skipped — a plan
  /// written for 4096 ranks stays valid on the small discrete-event
  /// slice of a sweep.
  void arm(comm::ClusterComm& cluster);

  /// Installs the message-verdict hook and Resilience overrides.
  void attach(comm::Communicator& comm);

  /// Uninstalls the message-verdict hook from `comm`.  Call when `comm`
  /// outlives this injector.
  void detach(comm::Communicator& comm);

  /// Calendar entries scheduled by arm() (diagnostics).
  [[nodiscard]] int events_armed() const noexcept { return events_armed_; }

 private:
  void schedule(rt::NodeSim& node, double at_s, std::function<void()> fire);
  void schedule_cluster(comm::ClusterComm& cluster, double at_s,
                        std::function<void()> fire);

  FaultPlan plan_;
  Rng comm_rng_;
  int events_armed_ = 0;
  /// Lifetime token the message hook weakly captures; dies with the
  /// injector, turning use-after-destruction into a typed error.
  std::shared_ptr<Injector*> token_ = std::make_shared<Injector*>(this);
};

}  // namespace pvc::fault
