#include "runtime/queue.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace pvc::rt {

namespace {

struct QueueMetrics {
  obs::Counter* kernels_submitted;
  obs::Counter* h2d_transfers;
  obs::Counter* d2h_transfers;
  obs::Counter* p2p_transfers;
  obs::Counter* waits;
  obs::Gauge* busy_seconds;
  obs::Gauge* idle_seconds;
};

QueueMetrics& queue_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local QueueMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    QueueMetrics q;
    q.kernels_submitted = &reg.counter("queue.kernels_submitted", "kernels",
                                       "kernel launches enqueued");
    q.h2d_transfers = &reg.counter("queue.h2d_transfers", "transfers",
                                   "host-to-device copies enqueued");
    q.d2h_transfers = &reg.counter("queue.d2h_transfers", "transfers",
                                   "device-to-host copies enqueued");
    q.p2p_transfers = &reg.counter("queue.p2p_transfers", "transfers",
                                   "peer-to-peer copies enqueued");
    q.waits = &reg.counter("queue.waits", "calls", "Queue::wait() drains");
    q.busy_seconds = &reg.gauge(
        "queue.busy_seconds", "s", "simulated seconds queue items were in flight");
    q.idle_seconds = &reg.gauge(
        "queue.idle_seconds", "s",
        "queue lifetime minus in-flight time, reported at wait()");
    return q;
  }();
  return m;
}

}  // namespace

Queue::Queue(NodeSim& node, int device) : node_(&node), device_(device) {
  ensure(device >= 0 && device < node.device_count(), "Queue: bad device");
}

void Queue::enqueue_async(
    std::function<void(std::function<void(sim::Time)>)> launch) {
  ++pending_;
  fifo_.push_back(std::move(launch));
  maybe_start_next();
}

void Queue::maybe_start_next() {
  if (item_in_flight_ || fifo_.empty()) {
    return;
  }
  item_in_flight_ = true;
  auto launch = std::move(fifo_.front());
  fifo_.erase(fifo_.begin());
  const sim::Time start = node_->engine().now();
  launch([this, start](sim::Time t) {
    const double in_flight = std::max(0.0, t - start);
    busy_accum_ += in_flight;
    queue_metrics().busy_seconds->add(in_flight);
    last_complete_ = t;
    --pending_;
    item_in_flight_ = false;
    maybe_start_next();
  });
}

void Queue::submit(const KernelDesc& kernel) {
  queue_metrics().kernels_submitted->add(1);
  const double duration =
      kernel_duration(node_->spec(), kernel, node_->activity());
  // Whether to trace is decided here, as NodeSim::traced() does for
  // transfers: an untraced kernel builds no label and captures no name.
  if (!node_->trace().enabled()) {
    enqueue_async([this, duration](std::function<void(sim::Time)> done) {
      node_->compute_queue(device_).submit(duration, std::move(done));
    });
    return;
  }
  enqueue_async([this, duration,
                 name = kernel.name](std::function<void(sim::Time)> done) {
    auto traced_done = [this, name, duration,
                        done = std::move(done)](sim::Time t) {
      node_->trace().record("dev" + std::to_string(device_) + "/compute",
                            name.empty() ? "kernel" : name, t - duration, t);
      done(t);
    };
    node_->compute_queue(device_).submit(duration, std::move(traced_done));
  });
}

void Queue::memcpy_h2d(double bytes) {
  queue_metrics().h2d_transfers->add(1);
  enqueue_async([this, bytes](std::function<void(sim::Time)> done) {
    node_->transfer_h2d(device_, bytes, std::move(done));
  });
}

void Queue::memcpy_d2h(double bytes) {
  queue_metrics().d2h_transfers->add(1);
  enqueue_async([this, bytes](std::function<void(sim::Time)> done) {
    node_->transfer_d2h(device_, bytes, std::move(done));
  });
}

void Queue::copy_to_peer(int dst_device, double bytes) {
  queue_metrics().p2p_transfers->add(1);
  enqueue_async([this, dst_device, bytes](std::function<void(sim::Time)> done) {
    node_->transfer_d2d(device_, dst_device, bytes, std::move(done));
  });
}

sim::Time Queue::wait() {
  // The calendar is shared; draining it completes every queue, after
  // which our recorded completion time is final.
  while (pending_ > 0 && !node_->engine().idle()) {
    node_->engine().run();
  }
  ensure(pending_ == 0, "Queue::wait: work cannot make progress");
  auto& metrics = queue_metrics();
  metrics.waits->add(1);
  // Idle complement of this queue's busy time over its lifetime so far,
  // reported incrementally so repeated waits never double-count.
  const double idle_total = std::max(0.0, last_complete_ - busy_accum_);
  metrics.idle_seconds->add(std::max(0.0, idle_total - idle_reported_));
  idle_reported_ = std::max(idle_reported_, idle_total);
  return last_complete_;
}

}  // namespace pvc::rt
