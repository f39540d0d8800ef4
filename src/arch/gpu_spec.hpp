#pragma once
// Hardware descriptions for the four systems the paper benchmarks.
//
// The unit of execution is a *subdevice*: a PVC Xe-Stack, an MI250 GCD,
// or a whole H100 (which has no subdevices).  The paper runs one MPI rank
// per subdevice ("explicit scaling", §II), so every per-rank quantity in
// the model is per-subdevice.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/precision.hpp"
#include "arch/workload.hpp"
#include "sim/cache_model.hpp"
#include "sim/power.hpp"

namespace pvc::arch {

/// Issue rates of one subdevice, in operations per clock, for the vector
/// (SIMD) pipeline and the matrix (XMX / tensor / matrix-core) pipeline.
/// A rate of zero means the pipeline does not support the precision.
struct PipelineRates {
  double fp64 = 0.0;
  double fp32 = 0.0;
  double fp16 = 0.0;
  double bf16 = 0.0;
  double tf32 = 0.0;
  double i8 = 0.0;

  [[nodiscard]] double at(Precision p) const {
    switch (p) {
      case Precision::FP64:
        return fp64;
      case Precision::FP32:
        return fp32;
      case Precision::FP16:
        return fp16;
      case Precision::BF16:
        return bf16;
      case Precision::TF32:
        return tf32;
      case Precision::I8:
        return i8;
    }
    return 0.0;
  }
};

/// Local memory (HBM) attached to one subdevice.
struct MemorySpec {
  std::string technology;      ///< "HBM2e", "HBM3", ...
  double bandwidth_bps = 0.0;  ///< theoretical peak, bytes/s
  double capacity_bytes = 0.0;
  double latency_cycles = 0.0;  ///< pointer-chase latency when missing LLC
};

/// One schedulable subdevice (Xe-Stack / GCD / whole H100).
struct SubdeviceSpec {
  std::string name;
  int compute_units = 0;       ///< Xe-Cores / SMs / CUs
  double f_max_hz = 0.0;       ///< maximum GPU clock
  PipelineRates vector_rates;  ///< ops/clock for the whole subdevice
  PipelineRates matrix_rates;  ///< ops/clock for the whole subdevice
  MemorySpec hbm;
  /// Cache levels nearest-first, as seen by one thread (L1 is per
  /// compute unit; L2/LLC is the subdevice-level cache).
  std::vector<pvc::sim::CacheLevelSpec> caches;

  /// Theoretical vector-pipeline peak at frequency `f_hz` (flop/s).
  [[nodiscard]] double vector_peak(Precision p, double f_hz) const {
    return vector_rates.at(p) * f_hz;
  }
  /// Theoretical matrix-pipeline peak at frequency `f_hz` (op/s).
  [[nodiscard]] double matrix_peak(Precision p, double f_hz) const {
    return matrix_rates.at(p) * f_hz;
  }
  /// Best available pipeline for a GEMM in precision `p`.
  [[nodiscard]] double gemm_peak(Precision p, double f_hz) const {
    const double m = matrix_peak(p, f_hz);
    const double v = vector_peak(p, f_hz);
    return m > v ? m : v;
  }
};

/// PCIe interface of one card.  Both PVC stacks share the first stack's
/// link (paper §II), which is why "One Stack" and "One PVC" PCIe numbers
/// in Table II are nearly identical.
struct PcieSpec {
  int generation = 5;
  double h2d_bps = 0.0;        ///< achievable host-to-device, one direction
  double d2h_bps = 0.0;        ///< achievable device-to-host, one direction
  double bidir_total_bps = 0.0;  ///< achievable combined both directions
  double latency_s = 10e-6;    ///< software + DMA setup latency
};

/// One GPU card: subdevices plus intra-card and card-level links.
struct GpuCardSpec {
  std::string name;
  int subdevice_count = 1;
  SubdeviceSpec subdevice;
  PcieSpec pcie;
  /// Intra-card stack-to-stack (MDFI) achievable bandwidth; zero for
  /// single-subdevice cards.
  double local_link_uni_bps = 0.0;
  double local_link_pair_total_bps = 0.0;  ///< bidirectional total
  double local_link_latency_s = 5e-6;
};

/// Host CPUs of a node (miniQMC's bottleneck lives here, §V-B1).
struct CpuSpec {
  std::string model;
  int sockets = 2;
  int cores_per_socket = 0;
  double ddr_bandwidth_bps = 0.0;  ///< aggregate host memory bandwidth
  double ddr_capacity_bytes = 0.0;

  [[nodiscard]] int total_cores() const { return sockets * cores_per_socket; }
};

/// Host-side aggregate I/O ceilings observed when every card transfers at
/// once (chipset / root-complex limits, calibrated from Table II's
/// full-node PCIe rows).
struct HostIoSpec {
  double h2d_total_bps = 0.0;
  double d2h_total_bps = 0.0;
  double bidir_total_bps = 0.0;
};

/// Remote (card-to-card) fabric: Xe-Link on PVC systems, NVLink/xGMI on
/// the others.  `aggregate_bps` of zero disables the node-wide cap.
struct FabricSpec {
  std::string technology;
  double remote_uni_bps = 0.0;         ///< one stack pair, one direction
  double remote_pair_total_bps = 0.0;  ///< one stack pair, both directions
  double aggregate_bps = 0.0;          ///< node-wide fabric ceiling (0 = none)
  double latency_s = 8e-6;
};

/// Measured-efficiency calibration layer (see DESIGN.md §1): library and
/// protocol efficiencies that cannot be derived from first principles.
struct Calibration {
  /// Per-stack dynamic power at f_max by workload class (W).
  double dyn_w_fp64_fma = 0.0;
  double dyn_w_fp32_fma = 0.0;
  double dyn_w_gemm_fp64 = 0.0;
  double dyn_w_gemm_fp32 = 0.0;
  double dyn_w_gemm_lowprec = 0.0;
  double dyn_w_fft = 0.0;
  double dyn_w_stream = 0.0;
  double dyn_w_mixed = 0.0;

  /// Fraction of HBM spec bandwidth a stream triad achieves.
  double stream_efficiency = 0.0;

  /// GEMM library efficiency vs the best pipeline's peak at the
  /// governor-resolved frequency.
  double gemm_eff_fp64 = 0.0;
  double gemm_eff_fp32 = 0.0;
  double gemm_eff_fp16 = 0.0;
  double gemm_eff_bf16 = 0.0;
  double gemm_eff_tf32 = 0.0;
  double gemm_eff_i8 = 0.0;

  /// FFT throughput as a fraction of the FP32 vector peak at the
  /// governor-resolved frequency (oneMKL-style batched transforms).
  double fft_fraction_1d = 0.0;
  double fft_fraction_2d = 0.0;

  [[nodiscard]] double dynamic_power(WorkloadKind k) const {
    switch (k) {
      case WorkloadKind::Fp64Fma:
        return dyn_w_fp64_fma;
      case WorkloadKind::Fp32Fma:
        return dyn_w_fp32_fma;
      case WorkloadKind::GemmFp64:
        return dyn_w_gemm_fp64;
      case WorkloadKind::GemmFp32:
        return dyn_w_gemm_fp32;
      case WorkloadKind::GemmLowPrec:
        return dyn_w_gemm_lowprec;
      case WorkloadKind::Fft:
        return dyn_w_fft;
      case WorkloadKind::Stream:
      case WorkloadKind::Transfer:
        return dyn_w_stream;
      case WorkloadKind::Mixed:
        return dyn_w_mixed;
    }
    return dyn_w_mixed;
  }

  [[nodiscard]] double gemm_efficiency(Precision p) const {
    switch (p) {
      case Precision::FP64:
        return gemm_eff_fp64;
      case Precision::FP32:
        return gemm_eff_fp32;
      case Precision::FP16:
        return gemm_eff_fp16;
      case Precision::BF16:
        return gemm_eff_bf16;
      case Precision::TF32:
        return gemm_eff_tf32;
      case Precision::I8:
        return gemm_eff_i8;
    }
    return 0.0;
  }
};

/// Full single-node description: everything the benches need.
struct NodeSpec {
  std::string system_name;  ///< "Aurora", "Dawn", "JLSE-H100", "JLSE-MI250"
  GpuCardSpec card;
  int card_count = 0;
  CpuSpec cpu;
  HostIoSpec host_io;
  FabricSpec fabric;
  pvc::sim::PowerDomain power;
  Calibration calib;

  [[nodiscard]] int total_subdevices() const {
    return card_count * card.subdevice_count;
  }
};

}  // namespace pvc::arch
