#pragma once
// miniBUDE: virtual-screening docking kernel (paper §V-A1).
//
// The kernel evaluates the inter-molecular energy of rigid ligand poses
// against a protein (the paper's deck: 2672 ligand atoms, 2672 protein
// atoms, 983040 poses).  It is FP32 and embarrassingly parallel over
// poses, which is what makes the real miniBUDE flop-rate bound.
//
// FOM model: Billion interactions per second, where one interaction is a
// (ligand atom, protein atom) pair for one pose.  The model divides the
// achieved FP32 rate (governor frequency x calibrated application
// fraction of peak) by the ~35 flops each interaction costs.  miniBUDE
// is not an MPI app: the paper reports one-Stack numbers only and
// doubles them for one-PVC comparisons (§V-B2).

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// Average flops one interaction costs in the energy kernel (transform
/// amortized over protein atoms): used by the FOM projection.
inline constexpr double kFlopsPerInteraction = 35.0;

/// Fraction of FP32 peak the miniBUDE kernel sustains on each system
/// (paper §V-B2/3: ~45-49% on PVC, ~30% on H100, ~26% on MI250).
[[nodiscard]] double minibude_fp32_fraction(const arch::NodeSpec& node);

/// Table VI row: GInteractions/s on one stack (PVC) or one GPU/GCD.
[[nodiscard]] FomTriple minibude_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
