// Quickstart: stand up a simulated Aurora node, inspect it, and time a
// few operations on one Xe-Stack — the five-minute tour of the API.
//
//   ./quickstart [system=aurora|dawn|h100|mi250]

#include <cstdio>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/units.hpp"
#include "micro/microbench.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace pvc;
  const auto config = Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"system"});

  // 1. Pick a system model (paper §III).
  const arch::NodeSpec node = pvcbench::system_from_config(config, "aurora");
  std::printf("System: %s\n", node.system_name.c_str());
  std::printf("  GPUs: %d x %s (%d subdevice(s) each)\n", node.card_count,
              node.card.name.c_str(), node.card.subdevice_count);
  std::printf("  CPU:  %s, %d cores\n", node.cpu.model.c_str(),
              node.cpu.total_cores());
  std::printf("  Subdevice: %d compute units, %s HBM at %s\n",
              node.card.subdevice.compute_units,
              format_bytes_si(node.card.subdevice.hbm.capacity_bytes).c_str(),
              format_bandwidth(node.card.subdevice.hbm.bandwidth_bps).c_str());

  // 2. Ask the analytic layer for achievable rates.
  std::printf("\nAchievable rates (one subdevice):\n");
  std::printf("  FP64 FMA peak: %s\n",
              format_flops(arch::fma_peak(node, arch::Precision::FP64,
                                          arch::Scope::OneSubdevice))
                  .c_str());
  std::printf("  FP32 FMA peak: %s\n",
              format_flops(arch::fma_peak(node, arch::Precision::FP32,
                                          arch::Scope::OneSubdevice))
                  .c_str());
  std::printf("  Stream triad:  %s\n",
              format_bandwidth(arch::subdevice_stream_bandwidth(node)).c_str());

  // 3. Run a pipeline on the discrete-event simulator: upload, DGEMM,
  //    download — all on subdevice 0, in order.
  rt::NodeSim sim(node);
  rt::Queue queue(sim, /*device=*/0);

  const std::size_t n = 8192;
  const double matrix_bytes = 3.0 * static_cast<double>(n) * n * 8.0;
  auto buffers = sim.memory().allocate(rt::MemKind::Device, 0, matrix_bytes);
  std::printf("\nAllocated %s of device HBM (%.1f%% of the subdevice)\n",
              format_bytes_si(matrix_bytes).c_str(),
              100.0 * matrix_bytes / node.card.subdevice.hbm.capacity_bytes);

  queue.memcpy_h2d(matrix_bytes);
  queue.submit(micro::gemm_kernel_desc(node, arch::Precision::FP64, n));
  queue.memcpy_d2h(static_cast<double>(n) * n * 8.0);
  const sim::Time end = queue.wait();

  std::printf("Pipeline H2D + DGEMM(N=%zu) + D2H finished at t = %s\n", n,
              format_duration(end).c_str());
  std::printf("  effective DGEMM rate: %s\n",
              format_flops(micro::gemm_flops(static_cast<double>(n)) / end)
                  .c_str());
  std::printf("\nNext: see node_comparison, topology_explorer, "
              "latency_sweep, trace_timeline, pvcbench_cli.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return pvcbench::guarded_main("quickstart", argc, argv, run);
}
