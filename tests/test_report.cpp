// Tests for src/report: Table VI assembly, figure bars, latency series.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "report/figures.hpp"
#include "report/table6.hpp"

namespace pvc::report {
namespace {

// Each figure's bars from freshly computed Table VI columns, as the fig
// benches call them.
std::vector<RelativeBar> figure2() {
  return figure2_bars(compute_table6(arch::aurora()),
                      compute_table6(arch::dawn()));
}

std::vector<RelativeBar> figure3() {
  return figure3_bars(compute_table6(arch::jlse_h100()),
                      compute_table6(arch::aurora()),
                      compute_table6(arch::dawn()));
}

std::vector<RelativeBar> figure4() {
  return figure4_bars(compute_table6(arch::jlse_mi250()),
                      compute_table6(arch::aurora()),
                      compute_table6(arch::dawn()));
}

TEST(Table6, CellPresencePatternMatchesPaper) {
  std::vector<Table6Column> cols;
  for (const auto& node : arch::all_systems()) {
    cols.push_back(compute_table6(node));
  }
  ASSERT_EQ(cols.size(), 4u);

  const auto& aurora = cols[0];
  EXPECT_EQ(aurora.system, "Aurora");
  EXPECT_TRUE(aurora.minibude.one_stack.has_value());
  EXPECT_FALSE(aurora.minibude.node.has_value());  // not MPI
  EXPECT_TRUE(aurora.cloverleaf.one_stack.has_value());
  EXPECT_TRUE(aurora.openmc.node.has_value());
  EXPECT_FALSE(aurora.openmc.one_stack.has_value());
  EXPECT_TRUE(aurora.hacc.node.has_value());

  const auto& dawn = cols[1];
  EXPECT_FALSE(dawn.openmc.node.has_value());  // not run on Dawn
  EXPECT_TRUE(dawn.hacc.node.has_value());

  const auto& h100 = cols[2];
  EXPECT_FALSE(h100.cloverleaf.one_stack.has_value());  // no stacks
  EXPECT_TRUE(h100.cloverleaf.one_gpu.has_value());

  const auto& mi250 = cols[3];
  EXPECT_TRUE(mi250.cloverleaf.one_stack.has_value());  // one GCD
  EXPECT_FALSE(mi250.minigamess.node.has_value());      // build failure
}

TEST(Figure2, AuroraToDawnRatiosNearExpectedBars) {
  const auto bars = figure2();
  ASSERT_GE(bars.size(), 10u);
  for (const auto& bar : bars) {
    EXPECT_GT(bar.measured, 0.0) << bar.app << " " << bar.label;
    if (bar.app == "miniQMC") {
      EXPECT_FALSE(bar.expected.has_value());
      continue;
    }
    ASSERT_TRUE(bar.expected.has_value()) << bar.app << " " << bar.label;
    // "In general the black expected performance bars are close to the
    // columns" (§V-B1).
    EXPECT_LT(relative_error(bar.measured, *bar.expected), 0.25)
        << bar.app << " " << bar.label;
  }
}

TEST(Figure2, MiniBudeExpectedIsXeCoreRatio) {
  const auto bars = figure2();
  const auto it =
      std::find_if(bars.begin(), bars.end(),
                   [](const RelativeBar& b) { return b.app == "miniBUDE"; });
  ASSERT_NE(it, bars.end());
  EXPECT_NEAR(*it->expected, 56.0 / 64.0, 0.01);  // paper: 0.88x
  EXPECT_NEAR(it->measured, 293.02 / 366.17, 0.05);
}

TEST(Figure3, SinglePvcRatiosInPaperRange) {
  // §V-B2: one PVC vs one H100 ranges from 0.6x (CloverLeaf) to ~1.8x
  // (miniQMC).
  const auto bars = figure3();
  double lo = 1e9, hi = 0.0;
  for (const auto& bar : bars) {
    if (bar.label.find("one PVC") == std::string::npos ||
        bar.label.find("Aurora") == std::string::npos) {
      continue;
    }
    lo = std::min(lo, bar.measured);
    hi = std::max(hi, bar.measured);
  }
  EXPECT_NEAR(lo, 0.6, 0.1);
  EXPECT_GT(hi, 1.3);
  EXPECT_LT(hi, 2.1);
}

TEST(Figure3, CloverLeafExpectedBarNearPointFiveNine) {
  // The paper's worked example: 2 TB/s / 3.35 TB/s = 0.59.
  const auto bars = figure3();
  for (const auto& bar : bars) {
    if (bar.app == "CloverLeaf" &&
        bar.label.find("one PVC") != std::string::npos) {
      ASSERT_TRUE(bar.expected.has_value());
      EXPECT_NEAR(*bar.expected, 0.59, 0.02);
    }
  }
}

TEST(Figure3, MiniBudeOutperformsExpectation) {
  // §V-B2: miniBUDE performs better than expected against H100 (PVC
  // sustains ~45-49% of FP32 peak vs H100's ~30%).
  const auto bars = figure3();
  for (const auto& bar : bars) {
    if (bar.app == "miniBUDE") {
      ASSERT_TRUE(bar.expected.has_value());
      EXPECT_GT(bar.measured, *bar.expected);
    }
  }
}

TEST(Figure4, StackVsGcdRatiosInPaperRange) {
  // §V-B3: single stack vs one GCD spans 0.8x (CloverLeaf) to 7.5x
  // (miniQMC).
  const auto bars = figure4();
  double lo = 1e9, hi = 0.0;
  for (const auto& bar : bars) {
    if (bar.label.find("one Stack") == std::string::npos) {
      continue;
    }
    lo = std::min(lo, bar.measured);
    hi = std::max(hi, bar.measured);
  }
  EXPECT_NEAR(lo, 0.8, 0.1);
  EXPECT_NEAR(hi, 7.5, 1.0);
}

TEST(Figure4, NoGamessBarsAgainstMi250) {
  const auto bars = figure4();
  for (const auto& bar : bars) {
    EXPECT_NE(bar.app, "mini-GAMESS");
  }
}

TEST(Figure1, SeriesCoverAllSystemsAndAreMonotone) {
  const auto systems = arch::all_systems();
  ASSERT_EQ(systems.size(), 4u);
  for (const auto& node : systems) {
    const LatencySeries s = figure1_system_series(node, false);
    ASSERT_GT(s.points.size(), 8u) << s.system;
    // Latency never decreases with footprint.
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_GE(s.points[i].latency_cycles,
                s.points[i - 1].latency_cycles - 1.0)
          << s.system << " at point " << i;
    }
  }
}

}  // namespace
}  // namespace pvc::report
