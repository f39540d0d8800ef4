// Integration tests: cross-module scenarios exercising the simulator,
// runtime, comm layer and workloads together.

#include <gtest/gtest.h>

#include <cmath>

#include "arch/systems.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "kernels/fft.hpp"
#include "micro/microbench.hpp"
#include "micro/table_results.hpp"
#include "miniapps/cloverleaf.hpp"
#include "report/table6.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"

namespace pvc {
namespace {

TEST(Integration, WeakScaledStepWithComputeAndHalo) {
  // A CloverLeaf-like step on every Aurora stack: stream kernel per rank
  // followed by a ring halo exchange — compute overlaps across ranks,
  // communication goes through the topology.
  rt::NodeSim sim(arch::aurora());
  sim.set_activity(arch::activity(sim.spec(), arch::Scope::FullNode));
  auto comm = comm::Communicator::explicit_scaling(sim);

  std::vector<rt::Queue> queues;
  for (int d = 0; d < sim.device_count(); ++d) {
    queues.emplace_back(sim, d);
  }
  rt::KernelDesc step;
  step.kind = arch::WorkloadKind::Stream;
  step.bytes = 10.0 * GB;  // ~10 ms per rank at 1 TB/s
  for (auto& q : queues) {
    q.submit(step);
  }
  for (auto& q : queues) {
    q.wait();
  }
  const double compute_end = sim.engine().now();
  EXPECT_NEAR(compute_end, 10.0e-3, 1.0e-3);  // ranks ran concurrently

  const double halo_end = comm::halo_exchange_ring(comm, 4.0 * MB);
  EXPECT_GT(halo_end, compute_end);
  // Slowest links on the ring are Xe-Link pairs at ~15 GB/s carrying
  // 2x4 MB each way; the exchange costs around a millisecond.
  EXPECT_LT(halo_end - compute_end, 5.0e-3);
}

TEST(Integration, MixedPrecisionPipelineOnOneCard) {
  // H2D upload, DGEMM, FP16 GEMM, D2H download — in order on stack 0
  // while stack 1 stays idle; total time is the sum of the stages.
  const auto node = arch::dawn();
  rt::NodeSim sim(node);
  rt::Queue q(sim, 0);
  q.memcpy_h2d(540.0 * MB);  // ~10 ms at 54 GB/s
  q.submit(micro::gemm_kernel_desc(node, arch::Precision::FP64, 8192));
  q.submit(micro::gemm_kernel_desc(node, arch::Precision::FP16, 8192));
  q.memcpy_d2h(530.0 * MB);  // ~10 ms at 53 GB/s
  const double end = q.wait();

  const double dgemm_s = micro::gemm_flops(8192.0) /
                         arch::gemm_rate(node, arch::Precision::FP64,
                                         arch::Scope::OneSubdevice);
  const double hgemm_s = micro::gemm_flops(8192.0) /
                         arch::gemm_rate(node, arch::Precision::FP16,
                                         arch::Scope::OneSubdevice);
  EXPECT_NEAR(end, 0.020 + dgemm_s + hgemm_s, 0.004);
}

TEST(Integration, FftConvolutionViaSpectralMultiply) {
  // FFT substrate end-to-end: circular convolution via forward FFT,
  // pointwise multiply, inverse FFT — checked against the direct sum.
  const std::size_t n = 50;  // Bluestein path
  Rng rng(9);
  std::vector<kernels::cplx> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = kernels::cplx(rng.uniform(-1.0, 1.0), 0.0);
    b[i] = kernels::cplx(rng.uniform(-1.0, 1.0), 0.0);
  }
  auto fa = kernels::fft_forward(a);
  const auto fb = kernels::fft_forward(b);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] *= fb[i];
  }
  const auto conv = kernels::fft_inverse_scaled(fa);
  for (std::size_t k = 0; k < n; ++k) {
    kernels::cplx direct(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      direct += a[j] * b[(k + n - j) % n];
    }
    EXPECT_NEAR(std::abs(conv[k] - direct), 0.0, 1e-9);
  }
}

TEST(Integration, DeterministicEndToEnd) {
  // The whole pipeline is reproducible: two independent evaluations of
  // Table II and Table VI give bit-identical results.
  const auto t2_a = micro::compute_table2(arch::dawn());
  const auto t2_b = micro::compute_table2(arch::dawn());
  EXPECT_DOUBLE_EQ(t2_a.fp64_peak.full_node, t2_b.fp64_peak.full_node);
  EXPECT_DOUBLE_EQ(t2_a.pcie_bidir.full_node, t2_b.pcie_bidir.full_node);
  EXPECT_DOUBLE_EQ(t2_a.fft_2d.one_card, t2_b.fft_2d.one_card);

  const auto t6_a = report::compute_table6(arch::aurora());
  const auto t6_b = report::compute_table6(arch::aurora());
  EXPECT_DOUBLE_EQ(*t6_a.cloverleaf.node, *t6_b.cloverleaf.node);
  EXPECT_DOUBLE_EQ(*t6_a.miniqmc.node, *t6_b.miniqmc.node);
}

TEST(Integration, HydroRunUnderMemoryAccounting) {
  // Allocate the CloverLeaf state through the USM manager sized to the
  // real per-cell cost.
  const auto node = arch::aurora();
  rt::NodeSim sim(node);
  const double paper_state_bytes =
      miniapps::kPaperCells * 5.0 * 8.0 * 1.2;  // 5 fields + workspace
  EXPECT_LT(paper_state_bytes, 64.0 * GB);  // fits one stack, as sized
  auto buffer =
      sim.memory().allocate(rt::MemKind::Device, 0, paper_state_bytes);
  EXPECT_DOUBLE_EQ(sim.memory().device_used(0), paper_state_bytes);
}

}  // namespace
}  // namespace pvc
