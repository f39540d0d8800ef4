#pragma once
// Factory functions building the four benchmarked systems (paper §III).
//
// Constants come from three places, called out per field in systems.cpp:
//   1. the paper's architecture description (§II) and node inventory (§III);
//   2. public spec sheets (paper refs [15][25][26][32]);
//   3. the calibration layer: measured efficiencies that follow from the
//      paper's own analysis (TDP down-clocking, protocol overheads,
//      library efficiency) — see DESIGN.md §1.

#include "arch/gpu_spec.hpp"

namespace pvc::arch {

/// Aurora: 6x PVC per node, 56 active Xe-Cores per stack, 500 W cards
/// with a 1.6 GHz idle frequency floor (paper §III).
[[nodiscard]] NodeSpec aurora();

/// Dawn: 4x PVC per node, all 64 Xe-Cores per stack active, 600 W cards.
[[nodiscard]] NodeSpec dawn();

/// JLSE H100 node: 4x NVIDIA H100 SXM5 80 GB.
[[nodiscard]] NodeSpec jlse_h100();

/// JLSE MI250 node: 4x AMD Instinct MI250 (two GCDs each).
[[nodiscard]] NodeSpec jlse_mi250();

/// Frontier node: 4x AMD Instinct MI250X (two GCDs each), calibrated
/// from the measured values the paper quotes from ref [13] (Table IV:
/// 24.1 / 33.8 TFlop/s GEMM, 1.3 TB/s per GCD, 37 GB/s GCD-to-GCD,
/// 25 GB/s PCIe).  The paper's future work compares Frontier against
/// Dawn and Aurora; this model makes that comparison runnable.
[[nodiscard]] NodeSpec frontier();

/// All four systems in the paper's comparison order.
[[nodiscard]] std::vector<NodeSpec> all_systems();

/// Looks up a system by name ("aurora", "dawn", "jlse-h100", "jlse-mi250",
/// "frontier", case-insensitive); throws pvc::Error with
/// ErrorCode::InvalidArgument for unknown names.
[[nodiscard]] NodeSpec system_by_name(const std::string& name);

/// Measured MI250x single-GCD reference values from Frontier
/// (paper Table IV, refs [13][32]).
struct Mi250xGcdReference {
  double sgemm_flops = 33.8e12;
  double dgemm_flops = 24.1e12;
  double memory_bw_bps = 1.3e12;
  double pcie_bw_bps = 25.0e9;
  double gcd_to_gcd_bps = 37.0e9;
  double matrix_fp64_peak = 48.0e12;  ///< theoretical, per GCD
};
[[nodiscard]] Mi250xGcdReference mi250x_gcd_reference();

}  // namespace pvc::arch
