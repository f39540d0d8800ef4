// Tests for src/micro: microbenchmark drivers against the paper's
// published Tables II and III, plus the latency-curve behaviour behind
// Figure 1.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "arch/systems.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
#include "micro/microbench.hpp"
#include "micro/paper_reference.hpp"
#include "micro/table_results.hpp"
#include "obs/metrics.hpp"

namespace pvc::micro {
namespace {

using arch::Precision;
using arch::Scope;

constexpr double kTolerance = 0.12;  // model-vs-paper relative tolerance

void expect_triple_close(const ScopeTriple& model, const ScopeTriple& paper,
                         const std::string& what, double tol = kTolerance) {
  EXPECT_LT(relative_error(model.one_stack, paper.one_stack), tol)
      << what << " one stack: model " << format_flops(model.one_stack)
      << " paper " << format_flops(paper.one_stack);
  EXPECT_LT(relative_error(model.one_card, paper.one_card), tol)
      << what << " one card: model " << format_flops(model.one_card)
      << " paper " << format_flops(paper.one_card);
  EXPECT_LT(relative_error(model.full_node, paper.full_node), tol)
      << what << " full node: model " << format_flops(model.full_node)
      << " paper " << format_flops(paper.full_node);
}

class Table2System : public ::testing::TestWithParam<const char*> {
 protected:
  static Table2Reference paper(const std::string& system) {
    return system == "aurora" ? table2_aurora() : table2_dawn();
  }
};

TEST_P(Table2System, ReproducesEveryRow) {
  const arch::NodeSpec node = arch::system_by_name(GetParam());
  const Table2Reference model = compute_table2(node);
  const Table2Reference ref = paper(GetParam());
  expect_triple_close(model.fp64_peak, ref.fp64_peak, "FP64 peak");
  expect_triple_close(model.fp32_peak, ref.fp32_peak, "FP32 peak");
  expect_triple_close(model.stream_bw, ref.stream_bw, "stream");
  expect_triple_close(model.pcie_h2d, ref.pcie_h2d, "PCIe H2D");
  expect_triple_close(model.pcie_d2h, ref.pcie_d2h, "PCIe D2H");
  expect_triple_close(model.pcie_bidir, ref.pcie_bidir, "PCIe bidir");
  expect_triple_close(model.dgemm, ref.dgemm, "DGEMM");
  expect_triple_close(model.sgemm, ref.sgemm, "SGEMM");
  expect_triple_close(model.hgemm, ref.hgemm, "HGEMM");
  expect_triple_close(model.bf16gemm, ref.bf16gemm, "BF16GEMM");
  expect_triple_close(model.tf32gemm, ref.tf32gemm, "TF32GEMM");
  expect_triple_close(model.i8gemm, ref.i8gemm, "I8GEMM");
  expect_triple_close(model.fft_1d, ref.fft_1d, "FFT 1D");
  expect_triple_close(model.fft_2d, ref.fft_2d, "FFT 2D");
}

TEST_P(Table2System, ClosedFormPeaksMatchTheMeasurements) {
  // The figures' expected bars and the roofline read the closed forms in
  // arch/peaks.hpp; Table II measures the same rates by simulation.  FMA
  // and stream agree to the bit, DGEMM up to the simulated launch
  // latency.
  const arch::NodeSpec node = arch::system_by_name(GetParam());
  for (const Scope scope :
       {Scope::OneSubdevice, Scope::OneCard, Scope::FullNode}) {
    const std::string where = arch::scope_name(scope);
    EXPECT_EQ(arch::fma_peak(node, Precision::FP64, scope),
              measure_peak_flops(node, Precision::FP64, scope))
        << where;
    EXPECT_EQ(arch::fma_peak(node, Precision::FP32, scope),
              measure_peak_flops(node, Precision::FP32, scope))
        << where;
    EXPECT_EQ(arch::stream_bandwidth(node, scope),
              measure_stream_bandwidth(node, scope))
        << where;
    EXPECT_LT(relative_error(arch::gemm_rate(node, Precision::FP64, scope),
                             measure_gemm(node, Precision::FP64, scope)),
              1e-4)
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(PvcSystems, Table2System,
                         ::testing::Values("aurora", "dawn"));

TEST(Table3, AuroraPointToPoint) {
  const auto node = arch::aurora();
  const Table3Reference model = compute_table3(node, true);
  const Table3Reference ref = table3_aurora();
  EXPECT_LT(relative_error(model.local_uni_one_pair, ref.local_uni_one_pair),
            kTolerance);
  EXPECT_LT(
      relative_error(model.local_bidir_one_pair, ref.local_bidir_one_pair),
      kTolerance);
  EXPECT_LT(
      relative_error(model.local_uni_all_pairs, ref.local_uni_all_pairs),
      kTolerance);
  EXPECT_LT(
      relative_error(model.local_bidir_all_pairs, ref.local_bidir_all_pairs),
      kTolerance);
  ASSERT_TRUE(model.remote_uni_one_pair.has_value());
  EXPECT_LT(relative_error(*model.remote_uni_one_pair,
                           *ref.remote_uni_one_pair),
            kTolerance);
  EXPECT_LT(relative_error(*model.remote_bidir_one_pair,
                           *ref.remote_bidir_one_pair),
            kTolerance);
  EXPECT_LT(relative_error(*model.remote_uni_all_pairs,
                           *ref.remote_uni_all_pairs),
            kTolerance);
  EXPECT_LT(relative_error(*model.remote_bidir_all_pairs,
                           *ref.remote_bidir_all_pairs),
            kTolerance);
}

TEST(Table3, DawnPointToPoint) {
  const auto node = arch::dawn();
  const Table3Reference model = compute_table3(node, false);
  const Table3Reference ref = table3_dawn();
  EXPECT_LT(relative_error(model.local_uni_one_pair, ref.local_uni_one_pair),
            kTolerance);
  EXPECT_LT(
      relative_error(model.local_bidir_all_pairs, ref.local_bidir_all_pairs),
      kTolerance);
  EXPECT_FALSE(model.remote_uni_one_pair.has_value());  // "-" in the paper
}

TEST(Scaling, PaperSection4B1Claims) {
  // Flops scale ~97% to two stacks and ~95% to the node on Aurora;
  // memory bandwidth scales perfectly.
  const auto node = arch::aurora();
  const double f1 = measure_peak_flops(node, Precision::FP64,
                                       Scope::OneSubdevice);
  const double f2 = measure_peak_flops(node, Precision::FP64, Scope::OneCard);
  const double f12 =
      measure_peak_flops(node, Precision::FP64, Scope::FullNode);
  EXPECT_NEAR(f2 / (2.0 * f1), 0.97, 0.02);
  EXPECT_NEAR(f12 / (12.0 * f1), 0.95, 0.02);
  const double b1 = measure_stream_bandwidth(node, Scope::OneSubdevice);
  const double b12 = measure_stream_bandwidth(node, Scope::FullNode);
  EXPECT_NEAR(b12 / (12.0 * b1), 1.0, 0.01);
}

TEST(Scaling, PcieFullNodePerRankCollapse) {
  // §IV-B4: D2H scales poorly — 40% = 264 / (53 * 12) per-rank efficiency.
  const auto node = arch::aurora();
  const double single =
      measure_pcie_bandwidth(node, PcieDirection::D2H, Scope::OneSubdevice);
  const double node_bw =
      measure_pcie_bandwidth(node, PcieDirection::D2H, Scope::FullNode);
  const double per_rank_eff = node_bw / (single * 12.0);
  EXPECT_NEAR(per_rank_eff, 0.40, 0.05);
}

TEST(Latency, CurveShowsThreePlateaus) {
  const auto node = arch::aurora();
  const std::vector<double> sweep{64.0 * KiB,  // L1-resident
                                  16.0 * MiB,  // LLC-resident
                                  768.0 * MiB};  // HBM
  const auto curve = measure_latency_curve(node, false, sweep);
  ASSERT_EQ(curve.size(), 3u);
  const auto& l1 = node.card.subdevice.caches[0];
  const auto& llc = node.card.subdevice.caches[1];
  EXPECT_NEAR(curve[0].latency_cycles, l1.latency_cycles, 3.0);
  EXPECT_NEAR(curve[1].latency_cycles, llc.latency_cycles,
              0.15 * llc.latency_cycles);
  EXPECT_GT(curve[2].latency_cycles, 0.8 * 860.0);
}

TEST(Latency, PaperFigure1CrossSystemClaims) {
  // PVC L1 ~90% slower than H100's but ~51% faster than MI250's; PVC
  // HBM ~23% and ~44% slower than H100 / MI250.
  const std::vector<double> l1_sweep{8.0 * KiB};
  const std::vector<double> hbm_sweep{640.0 * MiB};
  const auto pvc_l1 =
      measure_latency_curve(arch::aurora(), false, l1_sweep)[0].latency_cycles;
  const auto h100_l1 =
      measure_latency_curve(arch::jlse_h100(), false, l1_sweep)[0]
          .latency_cycles;
  const auto mi250_l1 =
      measure_latency_curve(arch::jlse_mi250(), false, l1_sweep)[0]
          .latency_cycles;
  EXPECT_NEAR(pvc_l1 / h100_l1, 1.9, 0.1);
  EXPECT_NEAR(pvc_l1 / mi250_l1, 0.49, 0.05);

  const auto pvc_hbm =
      measure_latency_curve(arch::aurora(), false, hbm_sweep)[0]
          .latency_cycles;
  const auto h100_hbm =
      measure_latency_curve(arch::jlse_h100(), false, hbm_sweep)[0]
          .latency_cycles;
  const auto mi250_hbm =
      measure_latency_curve(arch::jlse_mi250(), false, hbm_sweep)[0]
          .latency_cycles;
  EXPECT_NEAR(pvc_hbm / h100_hbm, 1.23, 0.08);
  EXPECT_NEAR(pvc_hbm / mi250_hbm, 1.44, 0.10);
}

TEST(Latency, DawnAndAuroraWithinTwoPercent) {
  // §IV-B6: same architecture — the two systems' curves coincide.
  const std::vector<double> sweep{32.0 * KiB, 64.0 * MiB, 512.0 * MiB};
  const auto a = measure_latency_curve(arch::aurora(), false, sweep);
  const auto d = measure_latency_curve(arch::dawn(), false, sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_LT(relative_error(a[i].latency_cycles, d[i].latency_cycles), 0.02);
  }
}

TEST(Latency, DefaultSweepIsPowerOfTwoLadder) {
  const auto sweep = default_latency_footprints(arch::aurora());
  ASSERT_GT(sweep.size(), 10u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_DOUBLE_EQ(sweep[i], 2.0 * sweep[i - 1]);
  }
  EXPECT_LE(sweep.back(), 1024.0 * MiB);
}

TEST(P2p, SingleDeviceCardHasNoLocalPairs) {
  const auto res = measure_p2p(arch::jlse_h100(), false);
  EXPECT_DOUBLE_EQ(res.local_uni_bps, 0.0);
  EXPECT_GT(res.remote_uni_bps, 0.0);  // NVLink pair
}

// --- one run per measurement -------------------------------------------------

constexpr Scope kScopes[] = {Scope::OneSubdevice, Scope::OneCard,
                             Scope::FullNode};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(MicroBench, MeasurementsAreBitReproducible) {
  // Each driver runs one NodeSim once.  The paper keeps the best of N
  // runs against run-to-run variation on real GPUs; the model has none,
  // so a second call must return the same bits.
  for (const auto& node : {arch::aurora(), arch::dawn()}) {
    SCOPED_TRACE(node.system_name);
    const auto twice = [](const std::string& what, auto&& measure) {
      EXPECT_EQ(bits(measure()), bits(measure())) << what;
    };
    for (const Scope s : kScopes) {
      const std::string scope = arch::scope_name(s);
      for (const Precision p : {Precision::FP64, Precision::FP32}) {
        twice("peak flops " + scope,
              [&] { return measure_peak_flops(node, p, s); });
      }
      twice("stream " + scope,
            [&] { return measure_stream_bandwidth(node, s); });
      for (const PcieDirection d : {PcieDirection::H2D, PcieDirection::D2H,
                                    PcieDirection::Bidirectional}) {
        twice("PCIe " + scope,
              [&] { return measure_pcie_bandwidth(node, d, s); });
      }
      for (const Precision p :
           {Precision::FP64, Precision::FP32, Precision::FP16, Precision::BF16,
            Precision::TF32, Precision::I8}) {
        twice("GEMM " + scope, [&] { return measure_gemm(node, p, s); });
      }
      for (const bool two_d : {false, true}) {
        twice("FFT " + scope, [&] { return measure_fft(node, two_d, s); });
      }
    }
    for (const bool all_pairs : {false, true}) {
      const P2pResult a = measure_p2p(node, all_pairs);
      const P2pResult b = measure_p2p(node, all_pairs);
      EXPECT_EQ(bits(a.local_uni_bps), bits(b.local_uni_bps));
      EXPECT_EQ(bits(a.local_bidir_bps), bits(b.local_bidir_bps));
      EXPECT_EQ(bits(a.remote_uni_bps), bits(b.remote_uni_bps));
      EXPECT_EQ(bits(a.remote_bidir_bps), bits(b.remote_bidir_bps));
    }
    const auto sweep = default_latency_footprints(node);
    const auto a = measure_latency_curve(node, true, sweep);
    const auto b = measure_latency_curve(node, true, sweep);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(bits(a[i].latency_cycles), bits(b[i].latency_cycles))
          << sweep[i];
    }
  }
}

TEST(MicroBench, Table2CountsEachMeasurementOnce) {
  const auto node = arch::aurora();
  obs::Registry registry;
  {
    obs::ScopedRegistry scope(registry);
    (void)compute_table2(node);
  }
  // Every row measures each scope once: 1 + 2 + 12 stacks on Aurora.
  std::uint64_t stacks = 0;
  for (const Scope s : kScopes) {
    stacks += static_cast<std::uint64_t>(arch::active_subdevices(node, s));
  }
  ASSERT_EQ(stacks, 15u);
  const auto snapshot = registry.snapshot();
  // Per stack: the FP64 and FP32 FMA chains and the triad launch 4
  // passes each; the six GEMMs and two FFTs launch 2 each.
  EXPECT_EQ(snapshot.count("queue.kernels_submitted"),
            (3 * 4 + 8 * 2) * stacks);
  // Per stack: one H2D flow, one D2H flow, and one of each for the
  // bidirectional row.
  EXPECT_EQ(snapshot.count("net.flows_started"), 4 * stacks);
}

}  // namespace
}  // namespace pvc::micro
