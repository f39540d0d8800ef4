// google-benchmark measurements of the simulator core itself: event
// throughput, flow-network rate recomputation under contention, the
// Figure 1 pointer chase, the cluster DES, the checkpoint/restart Monte
// Carlo, and whole-Table-II evaluation cost.  These guard
// the simulator's own performance (a model that takes minutes to answer
// is not usable as a design tool).

#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "fault/checkpoint.hpp"
#include "micro/microbench.hpp"
#include "sim/cache_model.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/flow_network.hpp"

namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    pvc::sim::Engine engine;
    long counter = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule_at(static_cast<double>(i), [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

// Schedule/cancel churn in the pattern reschedule_completion() produces:
// every new event cancels the previous one, so almost every scheduled
// event dies before it can fire.  Guards the O(1) lazy-deletion cancel
// path and ghost skipping in pop.
void BM_EngineCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    pvc::sim::Engine engine;
    long counter = 0;
    pvc::sim::EventId pending{};
    for (int i = 0; i < 10000; ++i) {
      engine.cancel(pending);
      pending = engine.schedule_at(static_cast<double>(i),
                                   [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineCancelChurn);

// A fresh engine that runs a handful of events and is destroyed: the
// shape of one one-shot NodeSim run, such as one Table II cell.  Guards
// constructing slots on first use rather than a whole chunk up front.
void BM_EngineFreshCalendar(benchmark::State& state) {
  for (auto _ : state) {
    pvc::sim::Engine engine;
    long counter = 0;
    for (int i = 0; i < 8; ++i) {
      engine.schedule_at(static_cast<double>(i), [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_EngineFreshCalendar);

void BM_FlowNetworkContention(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pvc::sim::Engine engine;
    pvc::sim::FlowNetwork net(engine);
    const auto shared = net.add_link(pvc::sim::LinkClass::Other, 1e9);
    std::vector<pvc::sim::LinkId> privates;
    for (int f = 0; f < flows; ++f) {
      privates.push_back(
          net.add_link(pvc::sim::LinkClass::Other, 1e8 * (1 + f % 7)));
    }
    for (int f = 0; f < flows; ++f) {
      net.start_flow(std::array{shared, privates[static_cast<std::size_t>(f)]},
                     1e6 * (1 + f % 13), 0.0, {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowNetworkContention)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

// The Figure 1 workload at footprints resident in L1, in the 192 MiB
// LLC, and beyond it in HBM: one coalesced kernels::chase_simulated()
// call per iteration, with the config micro::measure_latency_curve()
// runs at that footprint.  The timed region is everything fig1_latency
// pays per point: reset() and the closed form, which decides all three
// footprints, including the per-block latency sums.
void BM_CacheChase(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  pvc::sim::CacheHierarchy cache(node.card.subdevice.caches,
                                 node.card.subdevice.hbm.latency_cycles);
  const pvc::kernels::ChaseConfig config = pvc::micro::latency_chase_config(
      static_cast<double>(state.range(0)), /*coalesced=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pvc::kernels::chase_simulated(cache, config).avg_latency_cycles);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(config.warmup_steps + config.steps));
}
BENCHMARK(BM_CacheChase)
    ->Arg(256 << 10)  // L1-resident (512 KiB L1)
    ->Arg(16 << 20)   // LLC-resident (192 MiB LLC)
    ->Arg(384 << 20)  // beyond the LLC: HBM
    ->Unit(benchmark::kMicrosecond);

// One full DES cluster step at 768 ranks (64 Aurora nodes), the
// scaling_multinode hot path.  The step is the x-pass of a 2D
// many-field stencil (24 species/field halos per rank, the
// combustion-code regime): ranks laid out on an 8x8 node grid, each
// rank exchanging every field's halo with the same sub-device slot on
// the x-neighbour nodes, so all 36864 messages cross nodes.  The
// cluster is constructed once outside the timing loop; each iteration
// prices one step on the advancing simulated clock.
void BM_ClusterStep(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  const int ranks = 768;  // 64 nodes x 12 sub-devices
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  constexpr double kHaloBytes = 256.0 * 1024.0;
  constexpr int kFields = 24;
  constexpr int kRowRanks = 8 * 12;  // 8 nodes per grid row
  std::vector<pvc::comm::ClusterComm::Message> messages;
  messages.reserve(static_cast<std::size_t>(ranks) * kFields * 2);
  for (int f = 0; f < kFields; ++f) {
    for (int r = 0; r < ranks; ++r) {
      const int row = r / kRowRanks;
      const int pos = r % kRowRanks;
      const int east = row * kRowRanks + (pos + 12) % kRowRanks;
      const int west = row * kRowRanks + (pos - 12 + kRowRanks) % kRowRanks;
      messages.push_back({r, east, kHaloBytes});
      messages.push_back({r, west, kHaloBytes});
    }
  }
  pvc::comm::ClusterComm cluster(node, fabric, ranks);
  for (auto _ : state) {
    const auto result = cluster.exchange(messages);
    benchmark::DoNotOptimize(result.finish);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(messages.size()));
}
BENCHMARK(BM_ClusterStep)->Unit(benchmark::kMillisecond);

// A cross-node all-to-all whose routes chain every uplink/downlink into
// one contended flow set: 72 ranks on 6 Aurora nodes, every cross-node
// ordered pair sends (same-node pairs are skipped — they ride the
// intra-node link), with heterogeneous byte counts so the drain
// produces deep multi-level rate solves.
void BM_ClusterAllToAll(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  const int ranks = 72;  // 6 nodes x 12 sub-devices
  const int ranks_per_node = 12;
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  constexpr double kBaseBytes = 64.0 * 1024.0;
  std::vector<pvc::comm::ClusterComm::Message> messages;
  messages.reserve(static_cast<std::size_t>(ranks) * (ranks - ranks_per_node));
  for (int s = 0; s < ranks; ++s) {
    for (int d = 0; d < ranks; ++d) {
      if (s / ranks_per_node == d / ranks_per_node) {
        continue;  // same node: NIC bypass, not fabric traffic
      }
      const int k = s * ranks + d;
      messages.push_back(
          {s, d, kBaseBytes * (1.0 + static_cast<double>(k % 7) / 8.0)});
    }
  }
  pvc::comm::ClusterComm cluster(node, fabric, ranks);
  for (auto _ : state) {
    const auto result = cluster.exchange(messages);
    benchmark::DoNotOptimize(result.finish);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(messages.size()));
}
BENCHMARK(BM_ClusterAllToAll)->Unit(benchmark::kMillisecond);

// Checkpoint writes at 768 ranks (the resilience_sweep hot path): every
// live rank pushes its state over {NIC egress, node uplink}.
void BM_ClusterCheckpoint(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  const int ranks = 768;  // 64 nodes x 12 sub-devices
  const auto fabric = pvc::sim::FabricSpec::for_node(node);
  pvc::comm::ClusterComm cluster(node, fabric, ranks);
  for (auto _ : state) {
    const auto cost = cluster.checkpoint_write(4.0 * 1024.0 * 1024.0);
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_ClusterCheckpoint)->Unit(benchmark::kMillisecond);

// The Daly checkpoint/restart grid resilience_sweep prices at its
// defaults on Aurora: three MTBFs x five interval factors around the
// Daly optimum, 10000 s of work, C = the modelled one-node write of
// 16 GiB per rank, R = 3C, seeds 7-21, 400 trials per cell.  The timed
// region is everything that section pays per run: both estimators of
// all 15 cells.
void BM_CheckpointRestartGrid(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  const double write = pvc::fault::checkpoint_write_model_s(
      pvc::sim::FabricSpec::for_node(node), node.total_subdevices(),
      16.0 * 1024.0 * 1024.0 * 1024.0);
  constexpr int kTrials = 400;
  for (auto _ : state) {
    double seconds = 0.0;
    std::uint64_t seed = 7;
    for (const double mtbf : {250.0, 1000.0, 4000.0}) {
      const double center = pvc::fault::daly_optimal_interval_s(write, mtbf);
      for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const double interval = center * factor;
        seconds += pvc::fault::daly_expected_runtime_s(
            10000.0, interval, write, 3.0 * write, mtbf);
        seconds += pvc::fault::simulate_checkpoint_restart(
                       10000.0, interval, write, 3.0 * write, mtbf, seed++,
                       kTrials)
                       .elapsed_s;
      }
    }
    benchmark::DoNotOptimize(seconds);
  }
  state.SetItemsProcessed(state.iterations() * 15 * kTrials);
}
BENCHMARK(BM_CheckpointRestartGrid)->Unit(benchmark::kMillisecond);

void BM_MeasurePeakFlops(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  for (auto _ : state) {
    const double flops = pvc::micro::measure_peak_flops(
        node, pvc::arch::Precision::FP64, pvc::arch::Scope::FullNode);
    benchmark::DoNotOptimize(flops);
  }
}
BENCHMARK(BM_MeasurePeakFlops);

void BM_MeasureFullNodeP2p(benchmark::State& state) {
  const auto node = pvc::arch::aurora();
  for (auto _ : state) {
    const auto result = pvc::micro::measure_p2p(node, true);
    benchmark::DoNotOptimize(result.local_bidir_bps);
  }
  state.SetLabel("six local + six remote pairs, both directions");
}
BENCHMARK(BM_MeasureFullNodeP2p)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The stock "library_build_type" context reports how *libbenchmark*
  // was compiled (the distro package ships a debug build), not how this
  // binary was.  Stamp the app's own CMake config so the recording
  // scripts can refuse JSON from unoptimized builds.
  benchmark::AddCustomContext("pvc_build_type", PVC_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
