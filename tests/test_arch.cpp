// Unit tests for src/arch: system specs, peaks, topology, workloads.

#include <gtest/gtest.h>

#include "arch/peaks.hpp"
#include "arch/precision.hpp"
#include "arch/systems.hpp"
#include "arch/topology.hpp"
#include "arch/workload.hpp"
#include "core/error.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"

namespace pvc::arch {
namespace {

// --- precision ---------------------------------------------------------------

TEST(Precision, BytesAndNames) {
  EXPECT_EQ(precision_bytes(Precision::FP64), 8u);
  EXPECT_EQ(precision_bytes(Precision::FP32), 4u);
  EXPECT_EQ(precision_bytes(Precision::TF32), 4u);
  EXPECT_EQ(precision_bytes(Precision::FP16), 2u);
  EXPECT_EQ(precision_bytes(Precision::BF16), 2u);
  EXPECT_EQ(precision_bytes(Precision::I8), 1u);
  EXPECT_TRUE(is_integer(Precision::I8));
  EXPECT_FALSE(is_integer(Precision::FP16));
  EXPECT_EQ(gemm_name(Precision::FP64), "DGEMM");
  EXPECT_EQ(gemm_name(Precision::I8), "I8GEMM");
}

TEST(Workload, GemmWorkloadMapping) {
  EXPECT_EQ(gemm_workload(Precision::FP64), WorkloadKind::GemmFp64);
  EXPECT_EQ(gemm_workload(Precision::FP32), WorkloadKind::GemmFp32);
  EXPECT_EQ(gemm_workload(Precision::BF16), WorkloadKind::GemmLowPrec);
}

// --- system specs ------------------------------------------------------------

TEST(Systems, AuroraShape) {
  const NodeSpec n = aurora();
  EXPECT_EQ(n.card_count, 6);
  EXPECT_EQ(n.card.subdevice_count, 2);
  EXPECT_EQ(n.total_subdevices(), 12);
  EXPECT_EQ(n.card.subdevice.compute_units, 56);  // 56 active Xe-Cores
  EXPECT_NEAR(n.power.card_cap_w, 500.0, 1e-9);
}

TEST(Systems, DawnShape) {
  const NodeSpec n = dawn();
  EXPECT_EQ(n.card_count, 4);
  EXPECT_EQ(n.total_subdevices(), 8);
  EXPECT_EQ(n.card.subdevice.compute_units, 64);  // all Xe-Cores active
}

TEST(Systems, PvcTheoreticalPeakMatchesArchitecture) {
  // Paper §II: 256 FP64 flops per Xe-Core per clock; one Dawn stack at
  // 1.6 GHz => 64 * 256 * 1.6e9 = 26.2 TFlop/s.
  const NodeSpec n = dawn();
  EXPECT_NEAR(theoretical_vector_peak(n, Precision::FP64,
                                      Scope::OneSubdevice),
              26.2e12, 0.1e12);
  // Whole card: 32768 flops/clock (paper §II).
  EXPECT_NEAR(n.card.subdevice.vector_rates.fp64 * 2, 32768.0, 1e-9);
}

TEST(Systems, H100AndMi250ReferencePeaks) {
  const NodeSpec h = jlse_h100();
  EXPECT_NEAR(theoretical_vector_peak(h, Precision::FP64,
                                      Scope::OneSubdevice),
              34.0e12, 0.2e12);
  EXPECT_NEAR(theoretical_vector_peak(h, Precision::FP32,
                                      Scope::OneSubdevice),
              67.0e12, 0.2e12);
  EXPECT_NEAR(h.card.subdevice.hbm.bandwidth_bps, 3.35e12, 1e9);

  const NodeSpec m = jlse_mi250();
  // MI250 card: 45.3 TFlop/s FP32 == FP64 (two GCDs).
  EXPECT_NEAR(theoretical_vector_peak(m, Precision::FP64, Scope::OneCard),
              45.3e12, 0.2e12);
  EXPECT_NEAR(theoretical_vector_peak(m, Precision::FP32, Scope::OneCard),
              45.3e12, 0.2e12);
}

TEST(Systems, LookupByNameIsCaseInsensitive) {
  EXPECT_EQ(system_by_name("AURORA").system_name, "Aurora");
  EXPECT_EQ(system_by_name("h100").system_name, "JLSE-H100");
  EXPECT_EQ(system_by_name("mi250").system_name, "JLSE-MI250");
  EXPECT_EQ(system_by_name("frontier").system_name, "Frontier");
  EXPECT_THROW(system_by_name("perlmutter"), pvc::Error);
}

TEST(Systems, Mi250xReferenceValues) {
  const auto r = mi250x_gcd_reference();
  EXPECT_NEAR(r.dgemm_flops, 24.1e12, 1e9);
  EXPECT_NEAR(r.sgemm_flops, 33.8e12, 1e9);
  EXPECT_NEAR(r.memory_bw_bps, 1.3e12, 1e9);
}

// --- peaks vs the paper's Table II (one-stack column) -------------------------

struct PeakCase {
  const char* system;
  Precision precision;
  double paper_value;
};

// Without a PrintTo, gtest prints a case as raw bytes, which include the
// address of the `system` literal; the ctest names gtest_discover_tests
// derives from that printout would then change on every build under ASLR.
void PrintTo(const PeakCase& c, std::ostream* os) {
  *os << c.system << '_' << precision_name(c.precision);
}

class FmaPeakVsPaper : public ::testing::TestWithParam<PeakCase> {};

TEST_P(FmaPeakVsPaper, WithinTenPercent) {
  const auto& param = GetParam();
  const NodeSpec node = system_by_name(param.system);
  const double model =
      fma_peak(node, param.precision, Scope::OneSubdevice);
  EXPECT_LT(relative_error(model, param.paper_value), 0.10)
      << param.system << " " << precision_name(param.precision) << ": model "
      << format_flops(model) << " vs paper "
      << format_flops(param.paper_value);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, FmaPeakVsPaper,
    ::testing::Values(PeakCase{"aurora", Precision::FP64, 17e12},
                      PeakCase{"aurora", Precision::FP32, 23e12},
                      PeakCase{"dawn", Precision::FP64, 20e12},
                      PeakCase{"dawn", Precision::FP32, 26e12}));

struct GemmCase {
  const char* system;
  Precision precision;
  double paper_value;
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << c.system << '_' << precision_name(c.precision);
}

class GemmRateVsPaper : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmRateVsPaper, WithinTwelvePercent) {
  const auto& param = GetParam();
  const NodeSpec node = system_by_name(param.system);
  const double model = gemm_rate(node, param.precision, Scope::OneSubdevice);
  EXPECT_LT(relative_error(model, param.paper_value), 0.12)
      << param.system << " " << gemm_name(param.precision) << ": model "
      << format_flops(model);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, GemmRateVsPaper,
    ::testing::Values(GemmCase{"aurora", Precision::FP64, 13e12},
                      GemmCase{"aurora", Precision::FP32, 21e12},
                      GemmCase{"aurora", Precision::FP16, 207e12},
                      GemmCase{"aurora", Precision::BF16, 216e12},
                      GemmCase{"aurora", Precision::TF32, 107e12},
                      GemmCase{"aurora", Precision::I8, 448e12},
                      GemmCase{"dawn", Precision::FP64, 17e12},
                      GemmCase{"dawn", Precision::FP32, 25e12},
                      GemmCase{"dawn", Precision::FP16, 246e12},
                      GemmCase{"dawn", Precision::BF16, 254e12},
                      GemmCase{"dawn", Precision::TF32, 118e12},
                      GemmCase{"dawn", Precision::I8, 525e12}));

TEST(Peaks, GemmRateNamesTheSystemWithoutThePrecision) {
  // The MI250 has neither a vector nor a matrix TF32 pipeline.
  try {
    (void)gemm_rate(jlse_mi250(), Precision::TF32, Scope::OneSubdevice);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Generic);
    EXPECT_STREQ(e.what(), "gemm_rate: precision unsupported on JLSE-MI250");
  }
}

TEST(Peaks, StreamBandwidthScalesLinearly) {
  const NodeSpec n = aurora();
  const double one = stream_bandwidth(n, Scope::OneSubdevice);
  EXPECT_NEAR(one, 1.0e12, 0.02e12);  // paper: 1 TB/s per stack
  EXPECT_NEAR(stream_bandwidth(n, Scope::OneCard), 2.0 * one, 1e6);
  EXPECT_NEAR(stream_bandwidth(n, Scope::FullNode), 12.0 * one, 1e6);
}

TEST(Peaks, GovernedFrequencyReproducesTdpObservation) {
  const NodeSpec n = aurora();
  // §IV-B2: ~1.2 GHz under FP64 FMA, ~1.6 GHz under FP32.
  EXPECT_NEAR(governed_frequency(n, WorkloadKind::Fp64Fma,
                                 Scope::OneSubdevice),
              1.2e9, 0.02e9);
  EXPECT_NEAR(governed_frequency(n, WorkloadKind::Fp32Fma,
                                 Scope::OneSubdevice),
              1.6e9, 0.03e9);
}

TEST(Peaks, ComputeRatioFollowsXeCoreRatio) {
  // Conclusion of the paper: compute-bound microbenchmarks on Aurora run
  // at ~0.875x Dawn (56/64 Xe-Cores); memory-bound ones are equal.
  const double ratio =
      fma_peak(aurora(), Precision::FP64, Scope::OneSubdevice) /
      fma_peak(dawn(), Precision::FP64, Scope::OneSubdevice);
  EXPECT_NEAR(ratio, 56.0 / 64.0, 0.02);
  const double bw_ratio = stream_bandwidth(aurora(), Scope::OneSubdevice) /
                          stream_bandwidth(dawn(), Scope::OneSubdevice);
  EXPECT_NEAR(bw_ratio, 1.0, 1e-9);
}

TEST(Peaks, ScopeHelpers) {
  const NodeSpec n = aurora();
  EXPECT_EQ(active_subdevices(n, Scope::OneSubdevice), 1);
  EXPECT_EQ(active_subdevices(n, Scope::OneCard), 2);
  EXPECT_EQ(active_subdevices(n, Scope::FullNode), 12);
  EXPECT_EQ(activity(n, Scope::FullNode).stacks_per_card, 2);
  EXPECT_EQ(activity(n, Scope::FullNode).cards, 6);
}

// --- topology ----------------------------------------------------------------

TEST(Topology, AuroraPlanesMatchPaperListing) {
  // §IV-A4: plane 0 = {0.0, 1.1, 2.0, 3.0, 4.0, 5.1}.
  const auto topo = XeLinkTopology::aurora();
  EXPECT_EQ(topo.plane_of({0, 0}), 0);
  EXPECT_EQ(topo.plane_of({1, 1}), 0);
  EXPECT_EQ(topo.plane_of({2, 0}), 0);
  EXPECT_EQ(topo.plane_of({5, 1}), 0);
  EXPECT_EQ(topo.plane_of({0, 1}), 1);
  EXPECT_EQ(topo.plane_of({1, 0}), 1);
  EXPECT_EQ(topo.plane_of({5, 0}), 1);
  EXPECT_EQ(topo.plane_members(0).size(), 6u);
  EXPECT_EQ(topo.plane_members(1).size(), 6u);
}

TEST(Topology, RouteClassification) {
  const auto topo = XeLinkTopology::aurora();
  EXPECT_EQ(topo.route({0, 0}, {0, 0}).kind, RouteKind::SameStack);
  EXPECT_EQ(topo.route({0, 0}, {0, 1}).kind, RouteKind::LocalMdfi);
  EXPECT_EQ(topo.route({0, 0}, {2, 0}).kind, RouteKind::XeLinkDirect);
  // Same-plane despite different stack ids: 0.0 and 1.1.
  EXPECT_EQ(topo.route({0, 0}, {1, 1}).kind, RouteKind::XeLinkDirect);
  // Cross-plane: 0.0 -> 1.0 needs two hops (the paper's worked example).
  const Route r = topo.route({0, 0}, {1, 0});
  EXPECT_EQ(r.kind, RouteKind::XeLinkTwoHop);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[1], (StackId{1, 1}));  // via 1.1
  ASSERT_EQ(r.alternate.size(), 3u);
  EXPECT_EQ(r.alternate[1], (StackId{0, 1}));  // or via 0.1
}

TEST(Topology, FlatIndexRoundTrips) {
  const auto topo = XeLinkTopology::dawn();
  for (int i = 0; i < topo.stacks(); ++i) {
    EXPECT_EQ(topo.flat_index(topo.from_flat(i)), i);
  }
  EXPECT_THROW(topo.from_flat(99), pvc::Error);
  EXPECT_THROW(topo.plane_of({9, 0}), pvc::Error);
}

TEST(Topology, EveryPairRoutable) {
  const auto topo = XeLinkTopology::aurora();
  for (int a = 0; a < topo.stacks(); ++a) {
    for (int b = 0; b < topo.stacks(); ++b) {
      const Route r = topo.route(topo.from_flat(a), topo.from_flat(b));
      EXPECT_GE(r.path.size(), 1u);
      EXPECT_EQ(r.path.front(), topo.from_flat(a));
      EXPECT_EQ(r.path.back(), topo.from_flat(b));
    }
  }
}

}  // namespace
}  // namespace pvc::arch
