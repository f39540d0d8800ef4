#pragma once
// Microbenchmark drivers (paper §IV).
//
// Each driver stands up a NodeSim for the target system, enqueues the
// paper's workload at the requested scope (one stack / one PVC / full
// node), runs the event calendar, and reports the achieved rate — the
// same methodology as the paper's scripts, executed against the model.
// A workload is its cost descriptor: the GEMM and FFT ones below stand
// in for the oneMKL calls the paper times.
// Each number is one run of one NodeSim.  The paper keeps the best of
// N runs to ride out run-to-run variation on real GPUs (§IV-A); the
// model is deterministic, so a repeat would return the same bits
// (MicroBench.MeasurementsAreBitReproducible checks that once).

#include <cstddef>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "arch/peaks.hpp"
#include "arch/precision.hpp"
#include "kernels/pointer_chase.hpp"
#include "runtime/kernel.hpp"

namespace pvc::micro {

/// Transfer directions for the PCIe benchmark (§IV-A3).
enum class PcieDirection { H2D, D2H, Bidirectional };

/// Operation count the paper reports for a square N GEMM: 2 * N^3.
[[nodiscard]] constexpr double gemm_flops(double n) { return 2.0 * n * n * n; }

/// The paper's GEMM problem size (N=20480 square, §IV-A5).
inline constexpr std::size_t kPaperGemmN = 20480;

/// Cost descriptor for a square-N GEMM in precision `p` on `node`,
/// using the calibrated library efficiency and the best pipeline (the
/// paper's oneMKL GEMM, Table II rows 7-12).
[[nodiscard]] rt::KernelDesc gemm_kernel_desc(const arch::NodeSpec& node,
                                              arch::Precision p,
                                              std::size_t n);

/// Paper flop convention for a complex transform of `n` points:
/// 5 N log2 N (§IV-A6).
[[nodiscard]] double fft_flops_complex(double n);

/// Cost descriptor: a batched single-precision C2C transform of length
/// `n` (1D) or `n x n` (2D), `batch` transforms, priced with the
/// calibrated FFT fraction of FP32 peak (the paper's oneMKL FFT, Table
/// II rows 13-14).
[[nodiscard]] rt::KernelDesc fft_kernel_desc(const arch::NodeSpec& node,
                                             std::size_t n, bool two_d,
                                             std::size_t batch);

/// FMA-chain peak flops (Table II rows 1-2).  Precision FP64 or FP32.
[[nodiscard]] double measure_peak_flops(const arch::NodeSpec& node,
                                        arch::Precision p, arch::Scope scope);

/// Stream-triad HBM bandwidth (Table II row 3), using the paper's
/// 805 MB-per-array working set per stack.
[[nodiscard]] double measure_stream_bandwidth(const arch::NodeSpec& node,
                                              arch::Scope scope);

/// PCIe transfer bandwidth (Table II rows 4-6): 500 MB per direction per
/// rank (1 GB total for bidirectional).
[[nodiscard]] double measure_pcie_bandwidth(const arch::NodeSpec& node,
                                            PcieDirection direction,
                                            arch::Scope scope);

/// GEMM sustained rate (Table II rows 7-12), N=20480 square per stack.
[[nodiscard]] double measure_gemm(const arch::NodeSpec& node,
                                  arch::Precision p, arch::Scope scope);

/// Batched single-precision C2C FFT rate (Table II rows 13-14).
[[nodiscard]] double measure_fft(const arch::NodeSpec& node, bool two_d,
                                 arch::Scope scope);

/// Stack-to-stack point-to-point bandwidth (Table III).
struct P2pResult {
  double local_uni_bps = 0.0;
  double local_bidir_bps = 0.0;
  double remote_uni_bps = 0.0;   ///< zero when the node has one card
  double remote_bidir_bps = 0.0;
};

/// `all_pairs` false measures one stack pair; true runs every disjoint
/// pair concurrently (six on Aurora, four on Dawn).  Message size is the
/// paper's 500 MB.
[[nodiscard]] P2pResult measure_p2p(const arch::NodeSpec& node,
                                    bool all_pairs);

/// Memory-latency curve (Figure 1): average pointer-chase latency in GPU
/// cycles per footprint.
struct LatencyPoint {
  double footprint_bytes = 0.0;
  double latency_cycles = 0.0;
};
[[nodiscard]] std::vector<LatencyPoint> measure_latency_curve(
    const arch::NodeSpec& node, bool coalesced,
    const std::vector<double>& footprints_bytes);

/// The chase measure_latency_curve() runs at one footprint: 20000 timed
/// steps (at most 4 laps) after a warmup of one lap, capped at 8 Mi
/// steps.  BM_CacheChase times exactly this config.
[[nodiscard]] kernels::ChaseConfig latency_chase_config(double footprint_bytes,
                                                        bool coalesced);

/// Default footprint sweep: powers of two from 16 KiB to 1 GiB,
/// clipped to the subdevice HBM capacity.
[[nodiscard]] std::vector<double> default_latency_footprints(
    const arch::NodeSpec& node);

}  // namespace pvc::micro
