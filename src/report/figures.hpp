#pragma once
// Figure builders: relative-FOM bars with expected ("black bar")
// markers for Figures 2-4, and the latency series for Figure 1.
//
// Expected relative performance follows the paper's recipe exactly
// (Artifact Appendix): take the bound of each mini-app from Table V
// (miniBUDE: FP32 flop-rate; CloverLeaf: memory bandwidth; mini-GAMESS:
// DGEMM; miniQMC: no bar — its CPU-congestion bottleneck is not captured
// by any microbenchmark) and ratio the PVC's microbenchmark value
// against the peer's (Figure 2) or the peer's theoretical peak
// (Figures 3-4).  The microbenchmark values come from the closed forms
// arch::fma_peak, stream_bandwidth and gemm_rate, which reproduce Table
// II's measured values (tests/test_micro.cpp).
//
// Each figure takes precomputed Table VI columns (compute_table6), so
// callers can run those simulations concurrently (bench ParallelSweep)
// and assemble the bars serially.

#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "micro/microbench.hpp"
#include "report/table6.hpp"

namespace pvc::report {

/// One bar of a relative-FOM figure.
struct RelativeBar {
  std::string app;        ///< mini-app name
  std::string label;      ///< e.g. "Aurora one PVC"
  double measured = 0.0;  ///< model FOM ratio
  std::optional<double> expected;  ///< microbenchmark-derived bar
};

/// Figure 2: Aurora FOMs relative to Dawn (one stack / one PVC / node).
[[nodiscard]] std::vector<RelativeBar> figure2_bars(
    const Table6Column& aurora_fom, const Table6Column& dawn_fom);

/// Figure 3: Aurora & Dawn relative to JLSE-H100 (one PVC vs one H100,
/// node vs node).  miniBUDE uses the paper's doubled-stack convention.
[[nodiscard]] std::vector<RelativeBar> figure3_bars(
    const Table6Column& peer_fom, const Table6Column& aurora_fom,
    const Table6Column& dawn_fom);

/// Figure 4: Aurora & Dawn relative to JLSE-MI250 (one stack vs one GCD,
/// node vs node).
[[nodiscard]] std::vector<RelativeBar> figure4_bars(
    const Table6Column& peer_fom, const Table6Column& aurora_fom,
    const Table6Column& dawn_fom);

/// One system's Figure 1 latency curve — the per-task unit fig1_latency
/// sweeps across worker threads (bench ParallelSweep).
struct LatencySeries {
  std::string system;
  std::vector<micro::LatencyPoint> points;
};
[[nodiscard]] LatencySeries figure1_system_series(const arch::NodeSpec& node,
                                                 bool coalesced);

}  // namespace pvc::report
