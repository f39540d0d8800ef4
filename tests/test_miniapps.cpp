// Tests for src/miniapps: the FOM models vs Table VI.

#include <gtest/gtest.h>

#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "micro/paper_reference.hpp"
#include "miniapps/cloverleaf.hpp"
#include "miniapps/minibude.hpp"
#include "miniapps/minigamess.hpp"
#include "miniapps/miniqmc.hpp"

namespace pvc::miniapps {
namespace {

constexpr double kFomTolerance = 0.12;

// --- miniBUDE FOM ------------------------------------------------------------

TEST(MiniBudeFom, MatchesTableSix) {
  EXPECT_LT(relative_error(*minibude_fom(arch::aurora()).one_stack, 293.02),
            kFomTolerance);
  EXPECT_LT(relative_error(*minibude_fom(arch::dawn()).one_stack, 366.17),
            kFomTolerance);
  EXPECT_LT(relative_error(*minibude_fom(arch::jlse_h100()).one_stack, 638.40),
            kFomTolerance);
  EXPECT_LT(
      relative_error(*minibude_fom(arch::jlse_mi250()).one_stack, 193.66),
      kFomTolerance);
}

TEST(MiniBudeFom, NotAnMpiApp) {
  const auto fom = minibude_fom(arch::aurora());
  EXPECT_FALSE(fom.one_gpu.has_value());
  EXPECT_FALSE(fom.node.has_value());
}

// --- CloverLeaf FOM ----------------------------------------------------------

TEST(CloverLeafFom, MatchesTableSix) {
  const auto ref_a = micro::table6_aurora();
  const auto fom_a = cloverleaf_fom(arch::aurora());
  EXPECT_LT(relative_error(*fom_a.one_stack, *ref_a.cloverleaf_one_stack),
            kFomTolerance);
  EXPECT_LT(relative_error(*fom_a.one_gpu, *ref_a.cloverleaf_one_gpu),
            kFomTolerance);
  EXPECT_LT(relative_error(*fom_a.node, *ref_a.cloverleaf_node),
            kFomTolerance);

  const auto ref_d = micro::table6_dawn();
  const auto fom_d = cloverleaf_fom(arch::dawn());
  EXPECT_LT(relative_error(*fom_d.node, *ref_d.cloverleaf_node),
            kFomTolerance);

  const auto ref_h = micro::table6_h100();
  const auto fom_h = cloverleaf_fom(arch::jlse_h100());
  EXPECT_LT(relative_error(*fom_h.one_gpu, *ref_h.cloverleaf_one_gpu),
            kFomTolerance);
  EXPECT_LT(relative_error(*fom_h.node, *ref_h.cloverleaf_node), 0.15);

  const auto ref_m = micro::table6_mi250();
  const auto fom_m = cloverleaf_fom(arch::jlse_mi250());
  EXPECT_LT(relative_error(*fom_m.one_stack, *ref_m.cloverleaf_one_stack),
            kFomTolerance);
  EXPECT_LT(relative_error(*fom_m.node, *ref_m.cloverleaf_node), 0.15);
}

// --- miniQMC FOM -------------------------------------------------------------

TEST(MiniQmcFom, MatchesTableSix) {
  const auto ref_a = micro::table6_aurora();
  const auto fom_a = miniqmc_fom(arch::aurora());
  EXPECT_LT(relative_error(*fom_a.one_stack, *ref_a.miniqmc_one_stack), 0.05);
  EXPECT_LT(relative_error(*fom_a.one_gpu, *ref_a.miniqmc_one_gpu), 0.05);
  EXPECT_LT(relative_error(*fom_a.node, *ref_a.miniqmc_node), 0.05);

  const auto ref_d = micro::table6_dawn();
  const auto fom_d = miniqmc_fom(arch::dawn());
  EXPECT_LT(relative_error(*fom_d.one_stack, *ref_d.miniqmc_one_stack), 0.05);
  EXPECT_LT(relative_error(*fom_d.one_gpu, *ref_d.miniqmc_one_gpu), 0.15);
  EXPECT_LT(relative_error(*fom_d.node, *ref_d.miniqmc_node), 0.05);

  const auto ref_h = micro::table6_h100();
  const auto fom_h = miniqmc_fom(arch::jlse_h100());
  EXPECT_LT(relative_error(*fom_h.one_gpu, *ref_h.miniqmc_one_gpu), 0.05);
  EXPECT_LT(relative_error(*fom_h.node, *ref_h.miniqmc_node), 0.10);

  const auto ref_m = micro::table6_mi250();
  const auto fom_m = miniqmc_fom(arch::jlse_mi250());
  EXPECT_LT(relative_error(*fom_m.one_stack, *ref_m.miniqmc_one_stack), 0.05);
  EXPECT_LT(relative_error(*fom_m.node, *ref_m.miniqmc_node), 0.12);
}

TEST(MiniQmcFom, AuroraNodeSlowerPerGpuThanDawn) {
  // §V-B1 headline: six GPUs per node congest the CPUs — Aurora's node
  // FOM falls below Dawn's despite having 50% more GPUs.
  const auto fom_a = miniqmc_fom(arch::aurora());
  const auto fom_d = miniqmc_fom(arch::dawn());
  EXPECT_LT(*fom_a.node, *fom_d.node);
  EXPECT_GT(*fom_a.node / 12.0, 0.0);
}

TEST(MiniQmcFom, CongestionGrowsWithRanks) {
  const auto node = arch::aurora();
  EXPECT_LT(miniqmc_block_time(node, 1), miniqmc_block_time(node, 2));
  EXPECT_LT(miniqmc_block_time(node, 2), miniqmc_block_time(node, 12));
}

// --- mini-GAMESS FOM ----------------------------------------------------------

TEST(MiniGamessFom, MatchesTableSix) {
  const auto ref_a = micro::table6_aurora();
  const auto fom_a = minigamess_fom(arch::aurora());
  EXPECT_LT(relative_error(*fom_a.one_stack, *ref_a.gamess_one_stack), 0.05);
  EXPECT_LT(relative_error(*fom_a.one_gpu, *ref_a.gamess_one_gpu), 0.05);
  EXPECT_LT(relative_error(*fom_a.node, *ref_a.gamess_node), 0.05);

  const auto ref_d = micro::table6_dawn();
  const auto fom_d = minigamess_fom(arch::dawn());
  EXPECT_LT(relative_error(*fom_d.one_stack, *ref_d.gamess_one_stack), 0.05);
  EXPECT_LT(relative_error(*fom_d.node, *ref_d.gamess_node), 0.05);

  const auto ref_h = micro::table6_h100();
  const auto fom_h = minigamess_fom(arch::jlse_h100());
  EXPECT_LT(relative_error(*fom_h.one_gpu, *ref_h.gamess_one_gpu), 0.05);
  EXPECT_LT(relative_error(*fom_h.node, *ref_h.gamess_node), 0.10);
}

TEST(MiniGamessFom, AbsentOnMi250) {
  const auto fom = minigamess_fom(arch::jlse_mi250());
  EXPECT_FALSE(fom.one_stack.has_value());
  EXPECT_FALSE(fom.node.has_value());
}

TEST(MiniGamessFom, StrongScalingHasAmdahlTail) {
  // Going from 1 to 12 ranks speeds up by less than 12x.
  const auto node = arch::aurora();
  const double t1 = minigamess_walltime(node, 1);
  const double t12 = minigamess_walltime(node, 12);
  EXPECT_GT(t1 / t12, 8.0);
  EXPECT_LT(t1 / t12, 12.0);
}

}  // namespace
}  // namespace pvc::miniapps
