// Tests for src/apps: the OpenMC and HACC FOM models vs Table VI.

#include <gtest/gtest.h>

#include "apps/hacc_mini.hpp"
#include "apps/openmc_mini.hpp"
#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "micro/paper_reference.hpp"

namespace pvc::apps {
namespace {

// --- OpenMC FOM -----------------------------------------------------------------

TEST(OpenMcFom, MatchesTableSix) {
  EXPECT_LT(relative_error(*openmc_fom(arch::aurora()).node, 2039.0), 0.05);
  EXPECT_LT(relative_error(*openmc_fom(arch::jlse_h100()).node, 1191.0),
            0.05);
  EXPECT_LT(relative_error(*openmc_fom(arch::jlse_mi250()).node, 720.0),
            0.05);
}

TEST(OpenMcFom, AuroraBeatsH100NodeByAboutSeventyPercent) {
  // §VI-B1: "the Aurora 6x PVC node design offering 1.7x the performance
  // of the JLSE 4x H100 node design".
  const double ratio = *openmc_fom(arch::aurora()).node /
                       *openmc_fom(arch::jlse_h100()).node;
  EXPECT_NEAR(ratio, 1.7, 0.1);
}

TEST(OpenMcFom, NodeScaleOnly) {
  const auto fom = openmc_fom(arch::aurora());
  EXPECT_FALSE(fom.one_stack.has_value());
  EXPECT_FALSE(fom.one_gpu.has_value());
  EXPECT_TRUE(fom.node.has_value());
}

// --- HACC FOM -------------------------------------------------------------------

TEST(HaccFom, MatchesTableSix) {
  EXPECT_LT(relative_error(*hacc_fom(arch::aurora()).node, 13.81), 0.05);
  EXPECT_LT(relative_error(*hacc_fom(arch::dawn()).node, 12.26), 0.05);
  EXPECT_LT(relative_error(*hacc_fom(arch::jlse_h100()).node, 12.46), 0.05);
  EXPECT_LT(relative_error(*hacc_fom(arch::jlse_mi250()).node, 10.70), 0.05);
}

TEST(HaccFom, OrderingMatchesPaper) {
  // Aurora > H100 > Dawn > MI250 (Table VI).
  const double a = *hacc_fom(arch::aurora()).node;
  const double h = *hacc_fom(arch::jlse_h100()).node;
  const double d = *hacc_fom(arch::dawn()).node;
  const double m = *hacc_fom(arch::jlse_mi250()).node;
  EXPECT_GT(a, h);
  EXPECT_GT(h, d);
  EXPECT_GT(d, m);
}

}  // namespace
}  // namespace pvc::apps
