#pragma once
// miniQMC: real-space quantum Monte Carlo kernels (paper §V-A3).
//
// The mini-app is the structural skeleton of the QMCPACK diffusion
// kernel: walkers advance by drift-diffusion moves through a Metropolis
// test, with spline orbitals, a two-body Jastrow factor and incrementally
// updated distance tables, in mixed precision.
//
// FOM: N_walkers * N_electrons^3 * 1e-11 / T_diffusion (Table V).  The
// performance model splits a diffusion block into GPU work, leftover CPU
// work, and PCIe traffic; the CPU term stretches when the ranks sharing
// a socket outgrow its cores — the congestion that makes Aurora's
// six-GPU node *slower* per GPU than Dawn's four-GPU node (§V-B1), the
// paper's headline example of a bottleneck microbenchmarks miss.

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// Per-system timing parameters of one diffusion block (calibrated; see
/// DESIGN.md §1).  Units: seconds at the reference workload.
struct QmcCost {
  double gpu_s = 0.0;          ///< device kernels (splines, distances)
  double cpu_s = 0.0;          ///< leftover host work at full-socket speed
  double cpu_threads_needed = 24.0;  ///< cores one rank wants
  double xfer_s_at_55gbps = 0.0;     ///< PCIe traffic at 55 GB/s
  double serialization_s_per_rank = 0.0;  ///< runtime launch serialization
};

[[nodiscard]] QmcCost miniqmc_cost(const arch::NodeSpec& node);

/// Diffusion-block time for `ranks` concurrent ranks on the node.
[[nodiscard]] double miniqmc_block_time(const arch::NodeSpec& node,
                                        int ranks);

/// Table VI row: the paper's 2x2x1-cell / 320-walkers-per-GPU FOM.
[[nodiscard]] FomTriple miniqmc_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
