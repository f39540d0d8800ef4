#pragma once
// GAMESS RI-MP2 mini-app (paper §V-A4): DGEMM-bound quantum chemistry.
//
// The RI-MP2 perturbative energy correction: with RI three-index
// integrals B[aux][i,a] (occupied i, virtual a), each pair (i, j) forms
// V_ij = B_i^T B_j via DGEMM and contributes
//     E2 += sum_ab V[ab] (2 V[ab] - V[ba]) / (e_i + e_j - e_a - e_b),
// the "DGEMM plus reduction" structure the paper describes.
//
// FOM model: 1 / walltime(hours), strong-scaled.  The W90.rand DGEMM
// volume (~2.39e15 flops, back-derived consistently from both Aurora's
// and Dawn's Table VI entries) divides across ranks at the system's
// sustained DGEMM rate, plus a fixed serial setup time (Amdahl).

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// W90.rand DGEMM volume and the serial (host/setup) seconds.
inline constexpr double kW90DgemmFlops = 2.39e15;
inline constexpr double kW90SerialSeconds = 2.27;

/// Walltime of the W90.rand input on `ranks` ranks of `node` (seconds).
[[nodiscard]] double minigamess_walltime(const arch::NodeSpec& node,
                                         int ranks);

/// Table VI row: 1/walltime(h).  Absent for JLSE-MI250, where the paper
/// could not build the Fortran mini-app with the AMD compiler (§V-B3).
[[nodiscard]] FomTriple minigamess_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
