// Tests for the second extension batch: explicit scaling, the Frontier
// reference system, CloverLeaf artificial viscosity, and the miniQMC
// local-energy estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
#include "miniapps/cloverleaf.hpp"
#include "miniapps/miniqmc.hpp"
#include "runtime/kernel.hpp"

namespace pvc {
namespace {

// --- explicit scaling -------------------------------------------------------------

TEST(ExplicitScaling, CardThroughputNearTwiceOneStack) {
  // Paper §II benchmarks explicit scaling: one rank per stack, each
  // running half the card's work with both stacks active.
  const auto node = arch::dawn();
  rt::KernelDesc k;
  k.kind = arch::WorkloadKind::Stream;
  k.bytes = 1.0e12;
  k.launch_latency_s = 0.0;
  const double one_stack =
      rt::kernel_duration(node, k, arch::Activity{1, 1});
  rt::KernelDesc half = k;
  half.bytes /= node.card.subdevice_count;
  const double card = rt::kernel_duration(
      node, half, arch::Activity{node.card.subdevice_count, 1});
  EXPECT_NEAR(card, one_stack / 2.0, one_stack * 0.02);
}

// --- Frontier reference system -----------------------------------------------------

TEST(Frontier, MatchesPaperTableFourMeasurements) {
  const auto node = arch::frontier();
  EXPECT_EQ(node.system_name, "Frontier");
  // DGEMM 24.1 TFlop/s per GCD, SGEMM 33.8 (Table IV, measured).
  EXPECT_LT(relative_error(arch::gemm_rate(node, arch::Precision::FP64,
                                           arch::Scope::OneSubdevice),
                           24.1e12),
            0.03);
  EXPECT_LT(relative_error(arch::gemm_rate(node, arch::Precision::FP32,
                                           arch::Scope::OneSubdevice),
                           33.8e12),
            0.03);
  // Triad 1.3 TB/s per GCD.
  EXPECT_LT(relative_error(arch::subdevice_stream_bandwidth(node), 1.3e12),
            0.02);
  EXPECT_EQ(arch::system_by_name("frontier").system_name, "Frontier");
}

TEST(Frontier, GemmComparisonClaimFromSection4B5) {
  // "GEMMs on one GCD of MI250x is ~50% faster than a PVC Stack" —
  // against Aurora's 13 TFlop/s DGEMM stack.
  const double gcd = arch::gemm_rate(arch::frontier(), arch::Precision::FP64,
                                     arch::Scope::OneSubdevice);
  const double stack = arch::gemm_rate(arch::aurora(), arch::Precision::FP64,
                                       arch::Scope::OneSubdevice);
  EXPECT_NEAR(gcd / stack, 1.5, 0.35);
  // And the efficiency contrast: MI250x at ~50% of its matrix peak vs
  // PVC's ~80% of measured peak.
  EXPECT_NEAR(arch::frontier().calib.gemm_eff_fp64, 0.50, 0.02);
}

// --- CloverLeaf viscosity ------------------------------------------------------------

TEST(Viscosity, AddsPressureOnlyUnderCompression) {
  miniapps::CloverGrid grid(16, 4, 1.0, 1.0);
  // Uniform state with a converging velocity field around column 8.
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 19; ++i) {
      grid.velocity_x(i, j) = i < 8 ? 1.0 : -1.0;  // compression at i=8
    }
  }
  miniapps::update_pressure(grid, 1.4);
  // The converging cell is i=7: its left face moves right (+1) and its
  // right face moves left (-1).
  const double p_before = grid.pressure(7, 2);
  const double p_far = grid.pressure(3, 2);
  miniapps::apply_artificial_viscosity(grid);
  EXPECT_GT(grid.pressure(7, 2), p_before);   // compressed cell bumped
  EXPECT_DOUBLE_EQ(grid.pressure(3, 2), p_far);  // uniform flow untouched
}

TEST(Viscosity, ShockProfileMonotoneBehindFront) {
  miniapps::CloverGrid grid(128, 4, 1.0 / 128.0, 1.0 / 128.0);
  miniapps::initialize_sod(grid);
  for (int s = 0; s < 40; ++s) {
    miniapps::hydro_step(grid);
  }
  // Density along the mid-row decreases monotonically (within a small
  // tolerance) from the driver section into the expansion fan — no
  // post-shock ringing.
  double prev = grid.density(1, 2);
  for (std::size_t i = 2; i <= 128; ++i) {
    const double rho = grid.density(i, 2);
    EXPECT_LE(rho, prev * 1.02) << "oscillation at i=" << i;
    prev = rho;
  }
}

// --- miniQMC local energy ---------------------------------------------------------

TEST(LocalEnergy, GradientMatchesFiniteDifference) {
  miniapps::QmcSystem system;
  system.electrons = 6;
  miniapps::QmcEnsemble ensemble(system, 1, 17);
  auto walker = ensemble.walkers()[0];

  const std::size_t e = 2;
  const auto grad = ensemble.grad_log_psi(walker, e);
  const double eps = 1e-4;
  auto perturbed = walker;
  perturbed.x[e] += static_cast<float>(eps);
  const double fd_x =
      (ensemble.log_psi(perturbed) - ensemble.log_psi(walker)) / eps;
  EXPECT_NEAR(grad.x, fd_x, 5e-3);
}

TEST(LocalEnergy, LaplacianMatchesFiniteDifference) {
  miniapps::QmcSystem system;
  system.electrons = 5;
  miniapps::QmcEnsemble ensemble(system, 1, 23);
  const auto& walker = ensemble.walkers()[0];

  const std::size_t e = 1;
  const double eps = 1e-3;
  double fd_lap = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    auto plus = walker;
    auto minus = walker;
    auto bump = [&](miniapps::Walker& w, double delta) {
      if (axis == 0) {
        w.x[e] += static_cast<float>(delta);
      } else if (axis == 1) {
        w.y[e] += static_cast<float>(delta);
      } else {
        w.z[e] += static_cast<float>(delta);
      }
    };
    bump(plus, eps);
    bump(minus, -eps);
    fd_lap += (ensemble.log_psi(plus) - 2.0 * ensemble.log_psi(walker) +
               ensemble.log_psi(minus)) /
              (eps * eps);
  }
  EXPECT_NEAR(ensemble.laplacian_log_psi(walker, e), fd_lap, 0.05);
}

TEST(LocalEnergy, VmcEnergyFiniteAndRepulsionDominated) {
  miniapps::QmcSystem system;
  system.electrons = 16;
  miniapps::QmcEnsemble ensemble(system, 16, 31);
  for (int s = 0; s < 20; ++s) {
    ensemble.diffusion_step();
  }
  const double energy = ensemble.vmc_energy();
  EXPECT_TRUE(std::isfinite(energy));
  // A repulsive-only electron gas has positive total energy.
  EXPECT_GT(energy, 0.0);
}

TEST(LocalEnergy, JastrowLowersEnergyVersusNoJastrow) {
  // The Jastrow factor keeps electrons apart, reducing the mean Coulomb
  // repulsion relative to un-correlated (b ~ 0) sampling.
  miniapps::QmcSystem correlated;
  correlated.electrons = 12;
  correlated.jastrow_b = 1.5;
  miniapps::QmcSystem weak = correlated;
  weak.jastrow_b = 0.01;

  const auto mean_potential = [](const miniapps::QmcSystem& sys) {
    miniapps::QmcEnsemble ensemble(sys, 24, 7);
    for (int s = 0; s < 30; ++s) {
      ensemble.diffusion_step();
    }
    double v = 0.0;
    for (const auto& w : ensemble.walkers()) {
      for (std::size_t i = 0; i < sys.electrons; ++i) {
        for (std::size_t j = i + 1; j < sys.electrons; ++j) {
          v += 1.0 / ensemble.distance(w, i, j);
        }
      }
    }
    return v / static_cast<double>(ensemble.walkers().size());
  };
  EXPECT_LT(mean_potential(correlated), mean_potential(weak));
}

}  // namespace
}  // namespace pvc
