// Tests for the extension features: trace recording, flow-network
// introspection, message-size sweeps, roofline analysis and power
// reporting.

#include <gtest/gtest.h>

#include <cmath>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
#include "micro/message_sweep.hpp"
#include "report/roofline.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"
#include "sim/trace.hpp"

namespace pvc {
namespace {

// --- trace recorder ------------------------------------------------------------

TEST(Trace, DisabledByDefaultAndCheap) {
  sim::TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  trace.record("t", "e", 0.0, 1.0);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Trace, RecordsAndSummarizes) {
  sim::TraceRecorder trace;
  trace.set_enabled(true);
  trace.record("dev0/compute", "gemm", 0.0, 1.0);
  trace.record("dev0/compute", "fft", 1.0, 1.5);
  trace.record("dev1/compute", "gemm", 0.0, 2.0);
  const auto summaries = trace.summarize_tracks();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].track, "dev0/compute");
  EXPECT_DOUBLE_EQ(summaries[0].busy_seconds, 1.5);
  EXPECT_EQ(summaries[0].events, 2u);
  EXPECT_DOUBLE_EQ(summaries[1].busy_seconds, 2.0);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  sim::TraceRecorder trace;
  trace.set_enabled(true);
  trace.record("dev0/compute", "kernel", 0.001, 0.002);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);  // 1 ms in us
  EXPECT_THROW(trace.record("t", "bad", 2.0, 1.0), Error);
}

TEST(Trace, NodeSimCapturesKernelsAndTransfers) {
  rt::NodeSim sim(arch::aurora());
  sim.trace().set_enabled(true);
  rt::Queue q(sim, 0);
  rt::KernelDesc k;
  k.name = "triad";
  k.kind = arch::WorkloadKind::Stream;
  k.bytes = 1.0e9;
  q.submit(k);
  q.memcpy_h2d(100.0 * MB);
  q.wait();
  const auto& events = sim.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "triad");
  EXPECT_EQ(events[0].track, "dev0/compute");
  EXPECT_EQ(events[1].name, "h2d");
  // In-order queue: the transfer starts after the kernel ends.
  EXPECT_GE(events[1].end, events[0].end);
}

TEST(Trace, KernelSubmittedWithTracingOffIsNeverRecorded) {
  // Queue::submit decides whether to trace when the kernel is submitted,
  // as NodeSim::traced() does for transfers: switching the recorder on
  // before the kernel completes does not record it.
  rt::NodeSim sim(arch::aurora());
  rt::Queue q(sim, 0);
  rt::KernelDesc k;
  k.name = "untraced";
  k.kind = arch::WorkloadKind::Stream;
  k.bytes = 1.0e9;
  q.submit(k);
  sim.trace().set_enabled(true);
  k.name = "traced";
  q.submit(k);
  const sim::Time end = q.wait();
  const auto& events = sim.trace().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "traced");
  EXPECT_EQ(events[0].track, "dev0/compute");
  EXPECT_DOUBLE_EQ(events[0].end, end);
}

// --- flow network introspection --------------------------------------------------

TEST(FlowIntrospection, LinkLoadNeverExceedsCapacity) {
  // Property: under arbitrary random flow mixes, every link's load stays
  // within its capacity (max-min allocation is feasible).
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    sim::Engine engine;
    sim::FlowNetwork net(engine);
    std::vector<sim::LinkId> links;
    const int n_links = 2 + static_cast<int>(rng.uniform_index(6));
    for (int l = 0; l < n_links; ++l) {
      links.push_back(
          net.add_link(sim::LinkClass::Other, 10.0 + rng.uniform(0.0, 90.0)));
    }
    const int n_flows = 1 + static_cast<int>(rng.uniform_index(12));
    for (int f = 0; f < n_flows; ++f) {
      std::vector<sim::LinkId> route;
      const int hops = 1 + static_cast<int>(rng.uniform_index(3));
      for (int h = 0; h < hops; ++h) {
        route.push_back(
            links[rng.uniform_index(static_cast<std::uint64_t>(n_links))]);
      }
      net.start_flow(std::move(route), 1e5 + rng.uniform(0.0, 1e6), 0.0, {});
    }
    for (std::size_t l = 0; l < links.size(); ++l) {
      EXPECT_LE(net.link_load(links[l]),
                net.link(links[l]).capacity_bps * (1.0 + 1e-9))
          << "trial " << trial << " link " << l;
    }
    engine.run();  // drains cleanly
  }
}

// --- message sweep ----------------------------------------------------------------

TEST(MessageSweep, BandwidthMonotoneAndConvergesToTableValues) {
  const auto node = arch::aurora();
  const auto sizes = micro::default_message_sizes();
  const auto pcie =
      micro::sweep_path(node, micro::TransferPath::PcieH2D, sizes);
  // Bandwidth grows with message size (latency amortization).
  for (std::size_t i = 1; i < pcie.points.size(); ++i) {
    EXPECT_GE(pcie.points[i].bandwidth_bps,
              pcie.points[i - 1].bandwidth_bps * 0.999);
  }
  EXPECT_NEAR(pcie.asymptotic_bandwidth_bps, 55.0 * GBps, 1.0 * GBps);
  // Small messages are latency-dominated: ~10 us for 1 KiB.
  EXPECT_NEAR(pcie.latency_s, 10e-6, 2e-6);
  // N_1/2 sits near latency * bandwidth (the bandwidth-delay product).
  EXPECT_GT(pcie.half_bandwidth_bytes, 100.0 * KiB);
  EXPECT_LT(pcie.half_bandwidth_bytes, 2.0 * MiB);
}

TEST(MessageSweep, PathOrderingMatchesTableIII) {
  const auto node = arch::aurora();
  const std::vector<double> sizes{1.0 * MiB, 64.0 * MiB, 512.0 * MiB};
  const auto local =
      micro::sweep_path(node, micro::TransferPath::LocalPair, sizes);
  const auto remote =
      micro::sweep_path(node, micro::TransferPath::RemotePair, sizes);
  const auto two_hop =
      micro::sweep_path(node, micro::TransferPath::TwoHopPair, sizes);
  EXPECT_NEAR(local.asymptotic_bandwidth_bps, 197.0 * GBps, 5.0 * GBps);
  EXPECT_NEAR(remote.asymptotic_bandwidth_bps, 15.0 * GBps, 1.0 * GBps);
  EXPECT_NEAR(two_hop.asymptotic_bandwidth_bps, 15.0 * GBps, 1.0 * GBps);
  // Two-hop pays extra latency over the direct route.
  EXPECT_GT(two_hop.latency_s, remote.latency_s);
}

TEST(MessageSweep, AvailablePathsPerSystem) {
  const auto aurora_paths = micro::available_paths(arch::aurora());
  EXPECT_EQ(aurora_paths.size(), 5u);  // all paths exist
  const auto h100_paths = micro::available_paths(arch::jlse_h100());
  // H100: PCIe both ways + direct NVLink; no stacks, no two-hop.
  EXPECT_EQ(h100_paths.size(), 3u);
  EXPECT_THROW(micro::sweep_path(arch::jlse_h100(),
                                 micro::TransferPath::LocalPair,
                                 {1.0 * MiB}),
               Error);
}

// --- roofline ------------------------------------------------------------------------

TEST(Roofline, RidgeAndAttainable) {
  const auto roof = report::build_roofline(arch::aurora());
  EXPECT_NEAR(roof.stream_bw_bps, 1.0e12, 0.02e12);
  EXPECT_NEAR(roof.fp64_peak_flops, 17.0e12, 0.5e12);
  // Ridge point: peak / bandwidth ~ 17 flop/byte for FP64.
  EXPECT_NEAR(roof.ridge_fp64(), 17.0, 1.0);
  // Below the ridge, the diagonal binds.
  EXPECT_NEAR(roof.attainable(1.0, arch::Precision::FP64), 1.0e12, 0.05e12);
  // Above the ridge, the ceiling binds.
  EXPECT_NEAR(roof.attainable(100.0, arch::Precision::FP64),
              roof.fp64_peak_flops, 1.0);
  EXPECT_THROW(roof.attainable(0.0, arch::Precision::FP64), Error);
}

TEST(Roofline, PaperWorkloadsPlaceSensibly) {
  for (const auto& node : arch::all_systems()) {
    const auto points = report::place_paper_workloads(node);
    ASSERT_GE(points.size(), 5u);
    const auto roof = report::build_roofline(node);
    for (const auto& p : points) {
      EXPECT_GT(p.roofline_fraction, 0.0) << node.system_name << " " << p.name;
      EXPECT_LE(p.roofline_fraction, 1.0 + 1e-9)
          << node.system_name << " " << p.name;
      EXPECT_LE(p.achieved_flops,
                roof.attainable(p.arithmetic_intensity, p.precision) *
                    (1.0 + 1e-9));
      if (p.name == "CloverLeaf") {
        // Memory bound: sits on the diagonal, left of the ridge.
        EXPECT_LT(p.arithmetic_intensity, roof.ridge_fp64());
        EXPECT_NEAR(p.roofline_fraction, 1.0, 1e-6);
      }
    }
  }
}

TEST(Roofline, MiniBudeComputeBoundEverywhere) {
  for (const auto& node : arch::all_systems()) {
    const auto points = report::place_paper_workloads(node);
    for (const auto& p : points) {
      if (p.name == "miniBUDE") {
        const auto roof = report::build_roofline(node);
        EXPECT_GT(p.arithmetic_intensity, roof.ridge_fp32())
            << node.system_name;
      }
    }
  }
}

// --- power report ---------------------------------------------------------------------

TEST(PowerReport, Fp64StackSitsAtItsCap) {
  const auto report = arch::power_report(
      arch::aurora(), arch::WorkloadKind::Fp64Fma, arch::Scope::OneSubdevice);
  EXPECT_NEAR(report.frequency_hz, 1.2e9, 0.02e9);
  EXPECT_NEAR(report.per_stack_w, report.stack_cap_w, 1.0);
}

TEST(PowerReport, FullNodeStaysInsideNodeBudget) {
  for (const auto kind :
       {arch::WorkloadKind::Fp64Fma, arch::WorkloadKind::Fp32Fma,
        arch::WorkloadKind::GemmLowPrec, arch::WorkloadKind::Stream}) {
    const auto report =
        arch::power_report(arch::aurora(), kind, arch::Scope::FullNode);
    EXPECT_LE(report.total_w, report.node_cap_w * (1.0 + 1e-9))
        << arch::workload_name(kind);
    EXPECT_GT(report.total_w, 0.0);
  }
}

TEST(PowerReport, StreamDrawsLessThanCompute) {
  const auto stream = arch::power_report(
      arch::aurora(), arch::WorkloadKind::Stream, arch::Scope::FullNode);
  const auto fp64 = arch::power_report(
      arch::aurora(), arch::WorkloadKind::Fp64Fma, arch::Scope::FullNode);
  EXPECT_LT(stream.total_w, fp64.total_w);
}

}  // namespace
}  // namespace pvc
