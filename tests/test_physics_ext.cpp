// Tests for the physics extensions: OpenMC eigenvalue iteration and SPH
// kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "apps/openmc_mini.hpp"
#include "apps/sph.hpp"
#include "core/error.hpp"

namespace pvc {
namespace {

// --- OpenMC eigenvalue iteration ----------------------------------------------

TEST(PowerIteration, ConvergesToAnalyticKInf) {
  const auto xs = apps::make_two_group_xs();
  const double analytic = apps::analytic_k_inf(xs);
  EXPECT_NEAR(analytic, 0.8729, 1e-3);  // hand-derived for this set
  const auto result = apps::power_iteration(xs, 20000, 20, 5, 99);
  ASSERT_EQ(result.k_per_batch.size(), 20u);
  EXPECT_NEAR(result.k_mean, analytic, 3.0 * result.k_std + 0.01);
  EXPECT_GT(result.k_std, 0.0);
  EXPECT_LT(result.k_std, 0.05);  // 20k histories per batch
}

TEST(PowerIteration, BatchStatisticsShrinkWithParticles) {
  const auto xs = apps::make_two_group_xs();
  const auto coarse = apps::power_iteration(xs, 1000, 16, 2, 7);
  const auto fine = apps::power_iteration(xs, 64000, 16, 2, 7);
  EXPECT_LT(fine.k_std, coarse.k_std);
}

TEST(AnalyticKInf, SingleGroupClosedForm) {
  // One group: k = (sigma_f / (sigma_c + sigma_f)) * nu ... expressed via
  // collisions: c = 1/(1 - s/t), k = c * f/t * nu.
  apps::CrossSections xs;
  xs.total = {1.0};
  xs.capture = {0.3};
  xs.fission = {0.2};
  xs.nu = {2.0};
  xs.scatter = {0.5};
  const double c = 1.0 / (1.0 - 0.5);
  EXPECT_NEAR(apps::analytic_k_inf(xs), c * 0.2 * 2.0, 1e-12);
}

// --- SPH ------------------------------------------------------------------------

TEST(Sph, KernelNormalizationIntegratesToOne) {
  // Radial quadrature of 4 pi r^2 W(r, h) over [0, 2h].
  const double h = 0.7;
  const int steps = 4000;
  const double dr = 2.0 * h / steps;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double r = (i + 0.5) * dr;
    integral += 4.0 * std::numbers::pi * r * r * apps::sph_kernel(r, h) * dr;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Sph, KernelPropertiesHold) {
  const double h = 1.0;
  EXPECT_GT(apps::sph_kernel(0.0, h), apps::sph_kernel(0.5, h));
  EXPECT_GT(apps::sph_kernel(0.5, h), apps::sph_kernel(1.5, h));
  EXPECT_DOUBLE_EQ(apps::sph_kernel(2.0, h), 0.0);
  EXPECT_DOUBLE_EQ(apps::sph_kernel(5.0, h), 0.0);
  // Derivative: zero at the origin's limit direction and at support edge,
  // negative inside.
  EXPECT_LE(apps::sph_kernel_derivative(0.5, h), 0.0);
  EXPECT_DOUBLE_EQ(apps::sph_kernel_derivative(2.0, h), 0.0);
  EXPECT_THROW(apps::sph_kernel(1.0, 0.0), Error);
}

TEST(Sph, KernelDerivativeMatchesFiniteDifference) {
  const double h = 0.9;
  for (double r : {0.2, 0.6, 1.1, 1.7}) {
    const double eps = 1e-6;
    const double fd =
        (apps::sph_kernel(r + eps, h) - apps::sph_kernel(r - eps, h)) /
        (2.0 * eps);
    EXPECT_NEAR(apps::sph_kernel_derivative(r, h), fd, 1e-5);
  }
}

apps::ParticleSystem uniform_lattice(int per_side, double spacing) {
  apps::ParticleSystem ps;
  for (int i = 0; i < per_side; ++i) {
    for (int j = 0; j < per_side; ++j) {
      for (int k = 0; k < per_side; ++k) {
        ps.x.push_back(static_cast<float>(i * spacing));
        ps.y.push_back(static_cast<float>(j * spacing));
        ps.z.push_back(static_cast<float>(k * spacing));
        ps.vx.push_back(0.0f);
        ps.vy.push_back(0.0f);
        ps.vz.push_back(0.0f);
        ps.mass.push_back(1.0f);
      }
    }
  }
  return ps;
}

TEST(Sph, UniformLatticeDensityMatchesNumberDensity) {
  // Unit-mass particles spaced `a` apart have number density 1/a^3; the
  // SPH estimate at an interior particle should match within a few
  // percent for h ~ 1.2a.
  const double a = 1.0;
  const auto ps = uniform_lattice(9, a);
  const auto rho = apps::sph_density(ps, 1.2 * a);
  // Centre particle of the 9^3 lattice.
  const std::size_t centre = 4 * 81 + 4 * 9 + 4;
  EXPECT_NEAR(rho[centre], 1.0, 0.05);
  // Corner particle misses ~7/8 of its neighbour shell (self term and
  // the surface neighbours remain).
  EXPECT_LT(rho[0], 0.6);
  EXPECT_LT(rho[0], rho[centre]);
}

TEST(Sph, PressureForcesPushApartAndCancel) {
  apps::ParticleSystem ps;
  ps.x = {0.0f, 0.8f};
  ps.y = {0.0f, 0.0f};
  ps.z = {0.0f, 0.0f};
  ps.vx = {0.0f, 0.0f};
  ps.vy = {0.0f, 0.0f};
  ps.vz = {0.0f, 0.0f};
  ps.mass = {1.0f, 1.0f};
  const auto rho = apps::sph_density(ps, 1.0);
  const auto forces = apps::sph_pressure_forces(ps, rho, 1.0, 2.0);
  EXPECT_LT(forces.ax[0], 0.0);  // pushed away from the neighbour
  EXPECT_GT(forces.ax[1], 0.0);
  // Newton's third law (equal masses): momentum change cancels.
  EXPECT_NEAR(forces.ax[0] + forces.ax[1], 0.0, 1e-9);
  EXPECT_NEAR(forces.ay[0], 0.0, 1e-12);
}

}  // namespace
}  // namespace pvc
