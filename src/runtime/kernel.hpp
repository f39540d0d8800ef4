#pragma once
// Kernel descriptors and the roofline duration model.
//
// A kernel is described by what it does (flops in a given precision and
// pipeline, bytes of HBM traffic) rather than how it is written; the
// duration model resolves the governed frequency for the workload class
// and takes the classic roofline max of compute and memory time, plus a
// fixed launch latency.  Functional correctness is handled separately by
// the real kernels in src/kernels — this file only prices device time.

#include <string>

#include "arch/gpu_spec.hpp"
#include "arch/peaks.hpp"
#include "arch/precision.hpp"
#include "arch/workload.hpp"

namespace pvc::rt {

/// Cost description of one kernel launch on one subdevice.
struct KernelDesc {
  std::string name;
  arch::WorkloadKind kind = arch::WorkloadKind::Mixed;
  arch::Precision precision = arch::Precision::FP64;

  double flops = 0.0;  ///< arithmetic operations (or int ops for I8)
  bool use_matrix_pipeline = false;
  /// Fraction of the pipeline peak the kernel sustains (library /
  /// code-generation quality), applied on top of the governed frequency.
  double compute_efficiency = 1.0;

  double bytes = 0.0;  ///< HBM traffic (reads + writes)
  /// Fraction of the calibrated stream bandwidth the access pattern
  /// reaches (1.0 = triad-like streaming).
  double memory_efficiency = 1.0;

  double launch_latency_s = 5e-6;  ///< driver + queue submission overhead
};

/// Device-time of `kernel` on one subdevice of `node`, with `act`
/// describing how many stacks are concurrently active (the governor
/// needs node-wide occupancy to resolve the clock).
[[nodiscard]] double kernel_duration(const arch::NodeSpec& node,
                                     const KernelDesc& kernel,
                                     arch::Activity act);

}  // namespace pvc::rt
