#pragma once
// CloverLeaf: Lagrangian-Eulerian compressible hydrodynamics (paper
// §V-A2), a memory-bandwidth-bound mini-app.
//
// FOM model: cells per second.  Each cell step streams a fixed number of
// bytes through HBM, so the per-rank rate is achieved_bandwidth /
// bytes_per_cell_step; the paper's 15360^2 (~47 GB) grid is weak-scaled
// one rank per stack with ring halo exchanges whose cost the comm layer
// prices.

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// Paper problem: 15360^2 cells (~47 GB of state) per rank, weak scaled.
inline constexpr double kPaperCells = 15360.0 * 15360.0;
/// Hydro steps of the benchmark run and HBM bytes one cell streams per
/// step (14 CloverLeaf kernels touching several fields each); calibrated
/// so a 1 TB/s stack produces the paper's ~20.8 Mcells/s FOM.
inline constexpr double kBenchSteps = 87.0;
inline constexpr double kBytesPerCellStep = 552.0;

/// Table VI row: Mcells/s at each scope.  Node scope includes the
/// ring-halo-exchange cost priced by the comm layer.
[[nodiscard]] FomTriple cloverleaf_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
