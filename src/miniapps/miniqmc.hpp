#pragma once
// miniQMC: real-space quantum Monte Carlo kernels (paper §V-A3).
//
// Functional core: walkers carrying electron configurations advance by
// drift-diffusion moves through a Metropolis acceptance test; the wave
// function is a product of cubic-spline radial orbitals and a two-body
// Pade-Jastrow factor u(r) = b/(1+br) (decaying, so close approaches are
// suppressed), with electron-electron distance tables updated
// incrementally — the structural skeleton of the QMCPACK diffusion
// kernel, in mixed precision (FP32 values, FP64 accumulators).
//
// FOM: N_walkers * N_electrons^3 * 1e-11 / T_diffusion (Table V).  The
// performance model splits a diffusion block into GPU work, leftover CPU
// work, and PCIe traffic; the CPU term stretches when the ranks sharing
// a socket outgrow its cores — the congestion that makes Aurora's
// six-GPU node *slower* per GPU than Dawn's four-GPU node (§V-B1), the
// paper's headline example of a bottleneck microbenchmarks miss.

#include <cstdint>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "core/rng.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// Cubic B-spline on a uniform grid over [0, cutoff]; evaluates value
/// and first derivative (the orbital radial parts).
class CubicSpline {
 public:
  /// Fits coefficients so the spline interpolates `samples` at uniform
  /// knots over [0, cutoff].
  CubicSpline(std::vector<double> samples, double cutoff);

  [[nodiscard]] double value(double r) const;
  [[nodiscard]] double derivative(double r) const;

  [[nodiscard]] double cutoff() const noexcept { return cutoff_; }

 private:
  std::vector<double> coeffs_;
  double cutoff_;
  double inv_h_;
};

/// One walker: electron positions plus its local energy bookkeeping.
struct Walker {
  std::vector<float> x, y, z;  // electron coordinates (FP32 storage)
  double log_psi = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t proposed = 0;
};

/// Simulation box + wavefunction parameters.
struct QmcSystem {
  std::size_t electrons = 32;
  double box = 8.0;           ///< cubic cell edge (periodic)
  double jastrow_b = 0.5;     ///< two-body Jastrow strength
  double timestep = 0.05;     ///< diffusion timestep
};

/// Ensemble of walkers on one rank.
class QmcEnsemble {
 public:
  QmcEnsemble(const QmcSystem& system, std::size_t walkers,
              std::uint64_t seed);

  /// One diffusion step over every walker/electron; returns the ensemble
  /// acceptance ratio of the step.
  double diffusion_step();

  /// Minimum-image electron-electron distance.
  [[nodiscard]] double distance(const Walker& w, std::size_t i,
                                std::size_t j) const;

  /// Log of the (unnormalized) Jastrow wavefunction of a walker.
  [[nodiscard]] double log_psi(const Walker& w) const;

  [[nodiscard]] const std::vector<Walker>& walkers() const noexcept {
    return walkers_;
  }
  [[nodiscard]] const QmcSystem& system() const noexcept { return system_; }
  [[nodiscard]] double mean_acceptance() const;

  /// Local energy of a walker: E_L = T_L + V, with the kinetic part
  /// evaluated analytically from the Pade-Jastrow wavefunction
  ///   T_L = -1/2 sum_i [ lap_i ln psi + |grad_i ln psi|^2 ]
  /// and V the electron-electron Coulomb repulsion sum 1/r_ij.
  [[nodiscard]] double local_energy(const Walker& w) const;

  /// Gradient of ln psi with respect to electron e (for tests and for
  /// drift-diffusion extensions).
  struct Gradient {
    double x = 0.0, y = 0.0, z = 0.0;
  };
  [[nodiscard]] Gradient grad_log_psi(const Walker& w, std::size_t e) const;
  /// Laplacian of ln psi with respect to electron e.
  [[nodiscard]] double laplacian_log_psi(const Walker& w,
                                         std::size_t e) const;

  /// VMC energy estimate: mean local energy over the ensemble.
  [[nodiscard]] double vmc_energy() const;

 private:
  QmcSystem system_;
  std::vector<Walker> walkers_;
  Rng rng_;
};

// --- FOM model --------------------------------------------------------------

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
