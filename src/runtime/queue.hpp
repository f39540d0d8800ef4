#pragma once
// In-order device queue, SYCL-style.
//
// A Queue binds one subdevice of a NodeSim and accepts kernels (priced by
// the roofline model) and transfers.  Work items chain in order; `wait()`
// drains the whole event calendar and reports this queue's completion
// time, which is how the microbenchmarks time device work.

#include <functional>

#include "runtime/kernel.hpp"
#include "runtime/node_sim.hpp"

namespace pvc::rt {

/// In-order execution queue on one subdevice.
class Queue {
 public:
  Queue(NodeSim& node, int device);

  [[nodiscard]] int device() const noexcept { return device_; }
  [[nodiscard]] NodeSim& node() noexcept { return *node_; }

  /// Enqueues a kernel; device time comes from kernel_duration() using
  /// the node's current activity hint.  The kernel lands on the trace
  /// timeline only if the node's recorder is on at this call.
  void submit(const KernelDesc& kernel);

  /// Enqueues a host-to-device transfer that starts after previously
  /// enqueued work completes (in-order semantics).
  void memcpy_h2d(double bytes);
  void memcpy_d2h(double bytes);
  /// Peer transfer to another device's memory.
  void copy_to_peer(int dst_device, double bytes);

  /// Runs the simulation until this queue's enqueued work is complete;
  /// returns the completion timestamp of the last item.
  sim::Time wait();

  /// Completion time of the most recently finished item (valid after a
  /// wait() / NodeSim::run()).
  [[nodiscard]] sim::Time last_complete() const noexcept {
    return last_complete_;
  }

 private:
  /// Chains `launch(done_callback)` after all earlier queue items.
  void enqueue_async(std::function<void(std::function<void(sim::Time)>)> launch);

  NodeSim* node_;
  int device_;
  sim::Time last_complete_ = 0.0;
  // Number of enqueued items not yet finished.
  int pending_ = 0;
  std::vector<std::function<void(std::function<void(sim::Time)>)>> fifo_;
  bool item_in_flight_ = false;
  // Busy/idle accounting for the obs registry: per-item in-flight
  // seconds accumulate into busy_accum_; wait() reports the idle
  // complement (span minus busy) incrementally.
  double busy_accum_ = 0.0;
  double idle_reported_ = 0.0;

  void maybe_start_next();
};

}  // namespace pvc::rt
