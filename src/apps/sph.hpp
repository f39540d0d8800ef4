#pragma once
// Smoothed-particle hydrodynamics kernels (CRK-HACC's gas side, §VI-A2).
//
// CRK-HACC extends gravity-only HACC with conservative reproducing
// kernel SPH.  This module provides the SPH building blocks the
// hydrodynamic step needs: the cubic-spline smoothing kernel (M4), the
// density summation, and a basic pressure-force evaluation with the
// symmetric (conservative) form.  Tested against the kernel's analytic
// normalization and uniform-lattice densities.

#include <cstddef>
#include <vector>

#include "apps/hacc_mini.hpp"

namespace pvc::apps {

/// Cubic-spline (M4) kernel W(r, h) in 3-D, normalized so that
/// integral W dV = 1.  Compact support: W = 0 for r >= 2h.
[[nodiscard]] double sph_kernel(double r, double h);

/// Radial derivative dW/dr (needed by the force evaluation).
[[nodiscard]] double sph_kernel_derivative(double r, double h);

/// SPH density at every particle: rho_i = sum_j m_j W(|r_ij|, h).
/// O(N^2) direct summation (the mini-app scale path).
[[nodiscard]] std::vector<double> sph_density(const ParticleSystem& ps,
                                              double h);

/// Symmetric SPH pressure acceleration with an ideal-gas EOS
/// p = (gamma - 1) rho u, using a uniform specific internal energy `u`:
///   a_i = -sum_j m_j (p_i/rho_i^2 + p_j/rho_j^2) dW/dr * r_hat.
/// Returns per-particle accelerations (ax, ay, az interleaved by array).
struct SphForces {
  std::vector<double> ax, ay, az;
};
[[nodiscard]] SphForces sph_pressure_forces(const ParticleSystem& ps,
                                            const std::vector<double>& density,
                                            double h, double u,
                                            double gamma = 5.0 / 3.0);

}  // namespace pvc::apps
