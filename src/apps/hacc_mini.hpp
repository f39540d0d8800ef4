#pragma once
// CRK-HACC-style N-body gravity (paper §VI-A2).
//
// HACC's GPU time goes to an FP32 short-range force kernel.
//
// FOM model: N_p * N_steps / time.  A step costs GPU force time (FP32
// rate x per-system achieved fraction) plus host-side tree/communication
// work bound by CPU DDR bandwidth — the two terms the paper names
// ("CPU memory BW bound, GPU FP32 flop-rate bound", Table V).

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::apps {

/// Fraction of FP32 peak the SYCL/CUDA/HIP force kernel sustains.
[[nodiscard]] double hacc_fp32_fraction(const arch::NodeSpec& node);

/// Table VI row: the paper's adiabatic runs (2x480^3 on 12 ranks for
/// Aurora, 2x400^3 on 8 ranks elsewhere; 2 ranks/GPU on H100), node
/// scale only.
[[nodiscard]] miniapps::FomTriple hacc_fom(const arch::NodeSpec& node);

}  // namespace pvc::apps
