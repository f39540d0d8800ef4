#include "runtime/kernel.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "sim/power.hpp"

namespace pvc::rt {

namespace {

/// Sustained rate of `kernel`'s pipeline at frequency `f`.
double pipeline_rate(const arch::NodeSpec& node, const KernelDesc& kernel,
                     double f) {
  ensure(kernel.compute_efficiency > 0.0 && kernel.compute_efficiency <= 1.0,
         "kernel_duration: compute efficiency must be in (0, 1]");
  const auto& sub = node.card.subdevice;
  const double pipeline =
      kernel.use_matrix_pipeline ? sub.matrix_peak(kernel.precision, f)
                                 : sub.vector_peak(kernel.precision, f);
  ensure(pipeline > 0.0, [&] {
    return "kernel_duration: precision " +
           arch::precision_name(kernel.precision) + " unsupported on pipeline";
  });
  return pipeline * kernel.compute_efficiency;
}

}  // namespace

double kernel_duration(const arch::NodeSpec& node, const KernelDesc& kernel,
                       arch::Activity act) {
  ensure(kernel.flops >= 0.0 && kernel.bytes >= 0.0,
         "kernel_duration: negative work");
  // Resolve the governed clock once: it prices the compute term and
  // feeds the power metrics (time-at-frequency, joules) for every
  // evaluated launch, memory-bound ones included.
  const sim::PowerGovernor governor(node.power);
  const double dynamic_w = node.calib.dynamic_power(kernel.kind);
  const double f =
      governor.operating_frequency(dynamic_w, act.stacks_per_card, act.cards);
  double t_compute = 0.0;
  if (kernel.flops > 0.0) {
    t_compute = kernel.flops / pipeline_rate(node, kernel, f);
  }
  double t_memory = 0.0;
  if (kernel.bytes > 0.0) {
    ensure(kernel.memory_efficiency > 0.0 && kernel.memory_efficiency <= 1.0,
           "kernel_duration: memory efficiency must be in (0, 1]");
    const double bw =
        arch::subdevice_stream_bandwidth(node) * kernel.memory_efficiency;
    t_memory = kernel.bytes / bw;
  }
  const double duration =
      kernel.launch_latency_s + std::max(t_compute, t_memory);
  governor.account_execution(dynamic_w, f, duration);
  return duration;
}

}  // namespace pvc::rt
