#include "fault/injector.hpp"

#include "core/error.hpp"
#include "fault/metrics_internal.hpp"
#include "obs/metrics.hpp"

namespace pvc::fault {

namespace detail {

FaultMetrics& fault_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local FaultMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    FaultMetrics fm;
    fm.events_armed = &reg.counter(
        "fault.events_armed", "events",
        "fault-plan calendar entries scheduled by the injector");
    fm.rank_failures =
        &reg.counter("fault.rank_failures", "ranks",
                     "rankfail clauses fired against a cluster");
    fm.recoveries = &reg.counter(
        "fault.recoveries", "events",
        "fault-tolerant collective recoveries (shrink or spare failover)");
    fm.checkpoints = &reg.counter("fault.checkpoints", "checkpoints",
                                  "checkpoints written by the C/R model");
    fm.restarts = &reg.counter(
        "fault.restarts", "events",
        "restarts from the last checkpoint after a failure");
    fm.lost_work_seconds = &reg.gauge(
        "fault.lost_work_seconds", "seconds",
        "work redone because it post-dated the last checkpoint");
    return fm;
  }();
  return m;
}

}  // namespace detail

Injector::Injector(FaultPlan plan)
    : plan_(std::move(plan)),
      // The message-verdict stream: a splitmix-derived offset of the
      // plan seed, fixed so a seed keeps its verdicts.
      comm_rng_(plan_.seed ^ 0xc0117e57ull) {}

void Injector::schedule(rt::NodeSim& node, double at_s,
                        std::function<void()> fire) {
  node.engine().schedule_at(at_s, std::move(fire));
  ++events_armed_;
  detail::fault_metrics().events_armed->add(1);
}

void Injector::arm(rt::NodeSim& node) {
  if (plan_.reroute_penalty) {
    node.set_reroute_penalty(*plan_.reroute_penalty);
  }

  for (const auto& ev : plan_.linkdowns) {
    schedule(node, ev.at_s,
             [&node, ev] { node.set_xelink_down(ev.a, ev.b, true); });
    if (!ev.permanent) {
      schedule(node, ev.at_s + ev.duration_s,
               [&node, ev] { node.set_xelink_down(ev.a, ev.b, false); });
    }
  }

  for (const auto& fl : plan_.flaps) {
    for (int cycle = 0; cycle < fl.count; ++cycle) {
      const double down_at = fl.at_s + cycle * fl.period_s;
      const double up_at = down_at + fl.duty * fl.period_s;
      schedule(node, down_at,
               [&node, fl] { node.set_xelink_down(fl.a, fl.b, true); });
      schedule(node, up_at,
               [&node, fl] { node.set_xelink_down(fl.a, fl.b, false); });
    }
  }

  for (const auto& ev : plan_.degradations) {
    schedule(node, ev.at_s, [&node, ev] {
      node.set_xelink_degradation(ev.a, ev.b, ev.factor);
    });
    if (!ev.permanent) {
      schedule(node, ev.at_s + ev.duration_s, [&node, ev] {
        node.set_xelink_degradation(ev.a, ev.b, 1.0);
      });
    }
  }
}

void Injector::detach(comm::Communicator& comm) {
  comm.set_fault_hook({});
}

void Injector::schedule_cluster(comm::ClusterComm& cluster, double at_s,
                                std::function<void()> fire) {
  // exchange() picks NICs at post time, before the engine runs, so a
  // fault landing at (or before) the current simulated instant must
  // apply immediately — scheduling it would leave the very exchange it
  // targets blind to it.  Later faults are ordinary events on the
  // cluster's engine and fire mid-exchange in timestamp order; one armed
  // before the exchange posts wins the FIFO tie-break against a
  // same-instant completion, so it kills that flow.
  if (at_s <= cluster.engine().now()) {
    fire();
  } else {
    cluster.engine().schedule_at(at_s, std::move(fire));
  }
  ++events_armed_;
  detail::fault_metrics().events_armed->add(1);
}

void Injector::arm(comm::ClusterComm& cluster) {
  const int nodes = cluster.node_count();
  const int nics = cluster.fabric().nic.per_node;
  for (const auto& ev : plan_.nic_downs) {
    if (ev.node >= nodes || ev.nic >= nics) {
      continue;  // plan written for a larger cluster than this slice
    }
    schedule_cluster(cluster, ev.at_s, [&cluster, ev] {
      cluster.set_nic_down(ev.node, ev.nic, true);
    });
    if (!ev.permanent) {
      schedule_cluster(cluster, ev.at_s + ev.duration_s, [&cluster, ev] {
        cluster.set_nic_down(ev.node, ev.nic, false);
      });
    }
  }
  for (const auto& ev : plan_.nic_degradations) {
    if (ev.node >= nodes || ev.nic >= nics) {
      continue;
    }
    schedule_cluster(cluster, ev.at_s, [&cluster, ev] {
      cluster.set_nic_degradation(ev.node, ev.nic, ev.factor);
    });
    if (!ev.permanent) {
      schedule_cluster(cluster, ev.at_s + ev.duration_s, [&cluster, ev] {
        cluster.set_nic_degradation(ev.node, ev.nic, 1.0);
      });
    }
  }
  for (const auto& ev : plan_.node_downs) {
    if (ev.node >= nodes) {
      continue;
    }
    schedule_cluster(cluster, ev.at_s,
                     [&cluster, ev] { cluster.set_node_down(ev.node, true); });
    if (!ev.permanent) {
      schedule_cluster(cluster, ev.at_s + ev.duration_s, [&cluster, ev] {
        cluster.set_node_down(ev.node, false);
      });
    }
  }
  for (const auto& ev : plan_.rank_fails) {
    if (ev.rank >= cluster.size()) {
      continue;
    }
    schedule_cluster(cluster, ev.at_s, [&cluster, ev] {
      detail::fault_metrics().rank_failures->add(1);
      cluster.set_rank_failed(ev.rank);
    });
  }
}

void Injector::attach(comm::Communicator& comm) {
  comm::Resilience policy = comm.resilience();
  if (plan_.max_retries) {
    policy.max_retries = *plan_.max_retries;
  }
  if (plan_.retry_backoff_s) {
    policy.retry_backoff_s = *plan_.retry_backoff_s;
  }
  if (plan_.max_backoff_s) {
    policy.max_backoff_s = *plan_.max_backoff_s;
  }
  comm.set_resilience(policy);

  if (plan_.drop_probability > 0.0 || plan_.corrupt_probability > 0.0) {
    comm.set_fault_hook([tok = std::weak_ptr<Injector*>(token_)](
                            int /*src*/, int /*dst*/, int /*tag*/,
                            double /*bytes*/, int /*attempt*/) {
      const auto locked = tok.lock();
      ensure(locked != nullptr,
             "fault::Injector destroyed while its message fault hook was "
             "still installed — detach() the Communicator (or keep the "
             "injector alive) before destroying it (docs/ROBUSTNESS.md)");
      Injector* self = *locked;
      const double u = self->comm_rng_.uniform();
      if (u < self->plan_.drop_probability) {
        return comm::TransferVerdict::Drop;
      }
      if (u < self->plan_.drop_probability + self->plan_.corrupt_probability) {
        return comm::TransferVerdict::Corrupt;
      }
      return comm::TransferVerdict::Deliver;
    });
  }
}

}  // namespace pvc::fault
