// Tests for the second extension batch: explicit scaling and the
// Frontier reference system.

#include <gtest/gtest.h>

#include <cmath>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
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

}  // namespace
}  // namespace pvc
