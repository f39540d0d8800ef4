#include "micro/microbench.hpp"

#include <algorithm>

#include "blas/gemm.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "fft/fft.hpp"
#include "kernels/fma_chain.hpp"
#include "kernels/pointer_chase.hpp"
#include "kernels/triad.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"

namespace pvc::micro {
namespace {

/// Flat device indices active at a scope (the first card's stacks for
/// OneCard, everything for FullNode).
std::vector<int> active_devices(const arch::NodeSpec& node,
                                arch::Scope scope) {
  const int count = arch::active_subdevices(node, scope);
  std::vector<int> devices(static_cast<std::size_t>(count));
  for (int d = 0; d < count; ++d) {
    devices[static_cast<std::size_t>(d)] = d;
  }
  return devices;
}

/// Runs `kernel` `passes` times on every active device and returns the
/// aggregate rate of `work_per_pass` units per device.
double run_kernel_scope(const arch::NodeSpec& node, arch::Scope scope,
                        const rt::KernelDesc& kernel, double work_per_pass,
                        int passes) {
  rt::NodeSim sim(node);
  sim.set_activity(arch::activity(node, scope));
  const auto devices = active_devices(node, scope);
  std::vector<rt::Queue> queues;
  queues.reserve(devices.size());
  for (int d : devices) {
    queues.emplace_back(sim, d);
  }
  for (auto& q : queues) {
    for (int p = 0; p < passes; ++p) {
      q.submit(kernel);
    }
  }
  const sim::Time end = sim.run();
  ensure(end > 0.0, "microbench: zero elapsed time");
  const double total_work = work_per_pass * static_cast<double>(passes) *
                            static_cast<double>(devices.size());
  return total_work / end;
}

}  // namespace

double measure_peak_flops(const arch::NodeSpec& node, arch::Precision p,
                          arch::Scope scope) {
  ensure(p == arch::Precision::FP64 || p == arch::Precision::FP32,
         "measure_peak_flops: FP64/FP32 only");
  rt::KernelDesc kernel;
  kernel.name = "fma-chain";
  kernel.kind = p == arch::Precision::FP64 ? arch::WorkloadKind::Fp64Fma
                                           : arch::WorkloadKind::Fp32Fma;
  kernel.precision = p;
  // Enough chained FMAs for ~1 ms of device time per launch.
  const double target_flops = 2.0e10;
  kernel.flops = target_flops;
  kernel.compute_efficiency = arch::kPaperFmaEfficiency;
  kernel.launch_latency_s = 0.0;
  return run_kernel_scope(node, scope, kernel, target_flops, /*passes=*/4);
}

double measure_stream_bandwidth(const arch::NodeSpec& node,
                                arch::Scope scope) {
  rt::KernelDesc kernel;
  kernel.name = "stream-triad";
  kernel.kind = arch::WorkloadKind::Stream;
  kernel.precision = arch::Precision::FP64;
  const double bytes =
      kernels::triad_bytes(kernels::paper_triad_elements(), sizeof(double));
  kernel.bytes = bytes;
  kernel.flops = 0.0;
  kernel.launch_latency_s = 0.0;
  return run_kernel_scope(node, scope, kernel, bytes, /*passes=*/4);
}

double measure_pcie_bandwidth(const arch::NodeSpec& node,
                              PcieDirection direction, arch::Scope scope) {
  const double message = 500.0 * MB;
  rt::NodeSim sim(node);
  double total_bytes = 0.0;
  for (int d : active_devices(node, scope)) {
    if (direction == PcieDirection::H2D ||
        direction == PcieDirection::Bidirectional) {
      sim.transfer_h2d(d, message);
      total_bytes += message;
    }
    if (direction == PcieDirection::D2H ||
        direction == PcieDirection::Bidirectional) {
      sim.transfer_d2h(d, message);
      total_bytes += message;
    }
  }
  const sim::Time end = sim.run();
  ensure(end > 0.0, "measure_pcie: zero elapsed time");
  return total_bytes / end;
}

double measure_gemm(const arch::NodeSpec& node, arch::Precision p,
                    arch::Scope scope) {
  const auto kernel = blas::gemm_kernel_desc(node, p, blas::kPaperGemmN);
  return run_kernel_scope(node, scope, kernel, kernel.flops, /*passes=*/2);
}

double measure_fft(const arch::NodeSpec& node, bool two_d,
                   arch::Scope scope) {
  // Paper sizes: 1D N=4096 and 20000, 2D N=10000; batch sized for ~1 ms.
  const std::size_t n = two_d ? 10000 : 20000;
  const std::size_t batch = two_d ? 4 : 2048;
  const auto kernel = fft::fft_kernel_desc(node, n, two_d, batch);
  return run_kernel_scope(node, scope, kernel, kernel.flops, /*passes=*/2);
}

P2pResult measure_p2p(const arch::NodeSpec& node, bool all_pairs) {
  P2pResult result;
  const double message = 500.0 * MB;
  const bool has_local_pairs = node.card.subdevice_count == 2;

  const auto run_pairs = [&](const std::vector<std::pair<int, int>>& pairs,
                             bool bidirectional) {
    rt::NodeSim sim(node);
    double total = 0.0;
    for (const auto& [a, b] : pairs) {
      sim.transfer_d2d(a, b, message);
      total += message;
      if (bidirectional) {
        sim.transfer_d2d(b, a, message);
        total += message;
      }
    }
    const sim::Time end = sim.run();
    ensure(end > 0.0, "measure_p2p: zero elapsed time");
    return total / end;
  };

  if (has_local_pairs) {
    std::vector<std::pair<int, int>> local;
    const int cards = all_pairs ? node.card_count : 1;
    for (int c = 0; c < cards; ++c) {
      local.emplace_back(2 * c, 2 * c + 1);
    }
    result.local_uni_bps = run_pairs(local, false);
    result.local_bidir_bps = run_pairs(local, true);
  }

  if (node.card_count > 1) {
    // Disjoint same-plane (direct Xe-Link) pairs.
    std::vector<std::pair<int, int>> remote;
    rt::NodeSim probe(node);
    if (probe.topology()) {
      const auto& topo = *probe.topology();
      for (int plane = 0; plane < 2; ++plane) {
        const auto members = topo.plane_members(plane);
        for (std::size_t i = 0; i + 1 < members.size(); i += 2) {
          remote.emplace_back(topo.flat_index(members[i]),
                              topo.flat_index(members[i + 1]));
        }
      }
    } else {
      // Single-subdevice cards: pair adjacent cards.
      for (int c = 0; c + 1 < node.card_count; c += 2) {
        remote.emplace_back(c * node.card.subdevice_count,
                            (c + 1) * node.card.subdevice_count);
      }
    }
    if (!all_pairs) {
      remote.resize(1);
    }
    result.remote_uni_bps = run_pairs(remote, false);
    result.remote_bidir_bps = run_pairs(remote, true);
  }
  return result;
}

std::vector<LatencyPoint> measure_latency_curve(
    const arch::NodeSpec& node, bool coalesced,
    const std::vector<double>& footprints_bytes) {
  ensure(!footprints_bytes.empty(), "measure_latency_curve: empty sweep");
  sim::CacheHierarchy hierarchy(node.card.subdevice.caches,
                                node.card.subdevice.hbm.latency_cycles);
  std::vector<LatencyPoint> curve;
  curve.reserve(footprints_bytes.size());
  for (double footprint : footprints_bytes) {
    const auto run = kernels::chase_simulated(
        hierarchy, latency_chase_config(footprint, coalesced));
    curve.push_back(LatencyPoint{footprint, run.avg_latency_cycles});
  }
  return curve;
}

kernels::ChaseConfig latency_chase_config(double footprint_bytes,
                                          bool coalesced) {
  kernels::ChaseConfig config;
  config.footprint_bytes = static_cast<std::size_t>(footprint_bytes);
  config.coalesced = coalesced;
  const std::size_t nodes = config.footprint_bytes / 64;
  config.steps = std::min<std::uint64_t>(20000, nodes * 4);
  config.warmup_steps = std::min<std::uint64_t>(nodes, 8u << 20);
  return config;
}

std::vector<double> default_latency_footprints(const arch::NodeSpec& node) {
  std::vector<double> sweep;
  const double cap =
      std::min(node.card.subdevice.hbm.capacity_bytes, 1024.0 * MiB);
  for (double f = 16.0 * KiB; f <= cap; f *= 2.0) {
    sweep.push_back(f);
  }
  return sweep;
}

}  // namespace pvc::micro
