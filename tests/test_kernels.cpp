// Unit tests for src/kernels: narrow floats, triad, FMA chains, pointer
// chase, reductions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arch/systems.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "kernels/fma_chain.hpp"
#include "kernels/narrow_float.hpp"
#include "kernels/pointer_chase.hpp"
#include "kernels/reduction.hpp"
#include "kernels/triad.hpp"
#include "micro/microbench.hpp"
#include "obs/metrics.hpp"
#include "sim/cache_model.hpp"

namespace pvc::kernels {
namespace {

// --- narrow floats -----------------------------------------------------------

TEST(HalfFloat, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(round_trip<half_t>(v), v) << v;
  }
}

TEST(HalfFloat, RoundsToNearest) {
  // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10);
  // round-to-nearest-even picks 1.0.
  EXPECT_EQ(round_trip<half_t>(1.0f + 0x1.0p-11f), 1.0f);
  EXPECT_EQ(round_trip<half_t>(1.0f + 0x1.8p-11f), 1.0f + 0x1.0p-10f);
}

TEST(HalfFloat, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(round_trip<half_t>(1.0e6f)));
  EXPECT_TRUE(std::isinf(round_trip<half_t>(-1.0e6f)));
  EXPECT_LT(round_trip<half_t>(-1.0e6f), 0.0f);
}

TEST(HalfFloat, SubnormalsSurvive) {
  const float tiny = 0x1.0p-24f;  // smallest half subnormal
  EXPECT_EQ(round_trip<half_t>(tiny), tiny);
  EXPECT_EQ(round_trip<half_t>(0x1.0p-26f), 0.0f);  // underflow to zero
}

TEST(HalfFloat, InfinityAndNanPropagate) {
  EXPECT_TRUE(std::isinf(
      round_trip<half_t>(std::numeric_limits<float>::infinity())));
  EXPECT_TRUE(std::isnan(
      round_trip<half_t>(std::numeric_limits<float>::quiet_NaN())));
}

TEST(BFloat16, KeepsTopBitsWithRounding) {
  EXPECT_EQ(round_trip<bfloat16_t>(1.0f), 1.0f);
  EXPECT_EQ(round_trip<bfloat16_t>(-2.5f), -2.5f);
  // bf16 has ~3 decimal digits: 1.001 rounds to a nearby value.
  const float rt = round_trip<bfloat16_t>(1.001f);
  EXPECT_NEAR(rt, 1.001f, 0.005f);
  EXPECT_TRUE(std::isnan(
      round_trip<bfloat16_t>(std::numeric_limits<float>::quiet_NaN())));
  // bf16 keeps the float exponent range: no overflow at 1e38.
  EXPECT_NEAR(round_trip<bfloat16_t>(1.0e38f), 1.0e38f, 1.0e36f);
}

TEST(Tf32, TenMantissaBits) {
  EXPECT_EQ(round_trip<tf32_t>(1.0f), 1.0f);
  // 1 + 2^-10 is representable; 1 + 2^-12 rounds away.
  EXPECT_EQ(round_trip<tf32_t>(1.0f + 0x1.0p-10f), 1.0f + 0x1.0p-10f);
  EXPECT_EQ(round_trip<tf32_t>(1.0f + 0x1.0p-12f), 1.0f);
  EXPECT_TRUE(std::isinf(
      round_trip<tf32_t>(std::numeric_limits<float>::infinity())));
}

// --- triad -------------------------------------------------------------------

TEST(Triad, ComputesAEqualsBPlusScalarC) {
  std::vector<double> a(100), b(100), c(100);
  for (std::size_t i = 0; i < 100; ++i) {
    b[i] = static_cast<double>(i);
    c[i] = 2.0;
  }
  triad(std::span<double>(a), std::span<const double>(b),
        std::span<const double>(c), 3.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a[i], static_cast<double>(i) + 6.0);
  }
}

TEST(Triad, SizeMismatchThrows) {
  std::vector<double> a(3), b(4), c(3);
  EXPECT_THROW(triad(std::span<double>(a), std::span<const double>(b),
                     std::span<const double>(c), 1.0),
               pvc::Error);
}

TEST(Triad, ByteAccountingMatchesPaper) {
  // 805 MB per array of doubles (192 MiB LLC x 4).
  EXPECT_NEAR(static_cast<double>(paper_triad_elements()) * 8.0, 805.0e6,
              1.0e6);
  EXPECT_DOUBLE_EQ(triad_bytes(10, 8), 240.0);
}

// --- fma chain ---------------------------------------------------------------

TEST(FmaChain, MatchesClosedForm) {
  // One work item seeded with x0 = 0: x_n = b (a^n - 1)/(a - 1).
  const double a = 1.0000001, b = 1e-7;
  const double result = fma_chain_fp64(1, a, b);
  const double expected = fma_chain_expected(0.0, a, b, kFmaPerWorkItem);
  EXPECT_NEAR(result, expected, std::fabs(expected) * 1e-10);
}

TEST(FmaChain, FlopAccounting) {
  EXPECT_DOUBLE_EQ(fma_chain_flops(1), 2.0 * 2048.0);
  EXPECT_DOUBLE_EQ(fma_chain_flops(100), 2.0 * 2048.0 * 100.0);
}

TEST(FmaChain, Fp32PathRuns) {
  const float r = fma_chain_fp32(8, 0.999f, 0.001f);
  EXPECT_TRUE(std::isfinite(r));
  EXPECT_GT(r, 0.0f);
}

// --- pointer chase -----------------------------------------------------------

sim::CacheHierarchy tiny_hierarchy() {
  return sim::CacheHierarchy(
      {
          sim::CacheLevelSpec{"L1", 8192, 64, 2, 10.0},
          sim::CacheLevelSpec{"L2", 262144, 64, 8, 100.0},
      },
      1000.0);
}

TEST(PointerChase, SmallFootprintHitsL1) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 4096;  // half of L1
  cfg.steps = 5000;
  const auto r = chase_simulated(cache, cfg);
  EXPECT_NEAR(r.avg_latency_cycles, 10.0, 0.5);
}

TEST(PointerChase, MidFootprintHitsL2) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 131072;  // 16x L1, half of L2
  cfg.steps = 5000;
  const auto r = chase_simulated(cache, cfg);
  EXPECT_GT(r.avg_latency_cycles, 50.0);
  EXPECT_LT(r.avg_latency_cycles, 150.0);
}

TEST(PointerChase, LargeFootprintGoesToMemory) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 8 * 1024 * 1024;  // 32x L2
  cfg.steps = 5000;
  const auto r = chase_simulated(cache, cfg);
  EXPECT_GT(r.avg_latency_cycles, 900.0);
}

TEST(PointerChase, MonotoneAcrossHierarchy) {
  auto cache = tiny_hierarchy();
  double last = 0.0;
  for (std::size_t footprint : {4096u, 131072u, 8u * 1024 * 1024}) {
    ChaseConfig cfg;
    cfg.footprint_bytes = footprint;
    cfg.steps = 4000;
    const auto r = chase_simulated(cache, cfg);
    EXPECT_GT(r.avg_latency_cycles, last);
    last = r.avg_latency_cycles;
  }
}

TEST(PointerChase, CoalescedModeSameLatencyPerStep) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 4096;
  cfg.steps = 4000;
  const auto single = chase_simulated(cache, cfg);
  cfg.coalesced = true;
  const auto coalesced = chase_simulated(cache, cfg);
  EXPECT_NEAR(single.avg_latency_cycles, coalesced.avg_latency_cycles, 1.0);
}

TEST(PointerChase, DeterministicPerSeed) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 65536;
  cfg.steps = 2000;
  const auto a = chase_simulated(cache, cfg);
  const auto b = chase_simulated(cache, cfg);
  EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
}

TEST(PointerChase, HostChaseProducesPlausibleLatency) {
  const double ns = chase_host_ns_per_load(1 << 16, 20000);
  EXPECT_GT(ns, 0.1);   // faster than 0.1 ns/load is implausible
  EXPECT_LT(ns, 1000.0);  // slower than 1 us/load means something broke
}

// --- chase oracle ------------------------------------------------------------
// chase_simulated() answers in closed form where the geometry decides
// every load; simulate_chase() walks the permutation load by load.  Run
// on fresh hierarchies under separate registries, the two must agree bit
// for bit: the average latency, every per-level hit and miss count, the
// fills, the accesses and the cache.* metric snapshot.

using Levels = std::vector<sim::CacheLevelSpec>;

struct ChaseRun {
  ChaseResult result;
  std::vector<std::uint64_t> counts;  // hits, misses per level; accesses; fills
  std::vector<std::pair<std::string, std::uint64_t>> metrics;  // cache.*
};

ChaseRun run_chase(ChaseResult (*chase)(sim::CacheHierarchy&,
                                        const ChaseConfig&),
                   const Levels& levels, double memory_latency,
                   const ChaseConfig& cfg) {
  ChaseRun run;
  obs::Registry registry;
  {
    obs::ScopedRegistry scope(registry);
    sim::CacheHierarchy cache(levels, memory_latency);
    run.result = chase(cache, cfg);
    for (std::size_t i = 0; i < cache.level_count(); ++i) {
      run.counts.push_back(cache.level_stats(i).hits);
      run.counts.push_back(cache.level_stats(i).misses);
    }
    run.counts.push_back(cache.accesses());
    run.counts.push_back(cache.memory_fills());
  }
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name.rfind("cache.", 0) == 0) {
      run.metrics.emplace_back(sample.name, sample.count);
    }
  }
  return run;
}

bool has_closed_form(const Levels& levels, double memory_latency,
                     const ChaseConfig& cfg) {
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  sim::CacheHierarchy cache(levels, memory_latency);
  const std::uint64_t lines = cfg.footprint_bytes / 64;
  return cache
      .closed_form_chase(lines, cfg.warmup_steps > 0 ? cfg.warmup_steps : lines,
                         cfg.steps)
      .has_value();
}

void expect_chase_matches_oracle(const Levels& levels, double memory_latency,
                                 const ChaseConfig& cfg) {
  const ChaseRun fast = run_chase(&chase_simulated, levels, memory_latency, cfg);
  const ChaseRun oracle =
      run_chase(&simulate_chase, levels, memory_latency, cfg);
  EXPECT_EQ(fast.result.avg_latency_cycles, oracle.result.avg_latency_cycles);
  EXPECT_EQ(fast.result.steps, oracle.result.steps);
  EXPECT_EQ(fast.result.loads, oracle.result.loads);
  EXPECT_EQ(fast.counts, oracle.counts);
  EXPECT_EQ(fast.metrics, oracle.metrics);
  EXPECT_FALSE(oracle.metrics.empty());
}

// Every level's size, the footprint and the warm-up divided by 2^shift.
// Both the line count and the set counts shrink by the same factor, so
// every level keeps its lines-per-set counts and the chase its class.
std::pair<Levels, ChaseConfig> scaled(Levels levels, ChaseConfig cfg,
                                      unsigned shift) {
  for (auto& level : levels) {
    level.size_bytes >>= shift;
  }
  cfg.footprint_bytes >>= shift;
  cfg.warmup_steps >>= shift;
  return {levels, cfg};
}

TEST(ChaseOracle, BenchSweepOnRealAndScaledGeometries) {
  // Footprints up to 4 MiB run on the real geometries.  Past that, 2^-6
  // keeps every set count whole (MI250's 64-set L1 becomes one set) and
  // leaves the 1 GiB point's 2^18 lines room for its cold warm-up plus
  // 20000 timed loads.
  for (const auto& node : arch::all_systems()) {
    const auto& sub = node.card.subdevice;
    for (double footprint : micro::default_latency_footprints(node)) {
      SCOPED_TRACE(node.system_name + " " + std::to_string(footprint));
      const unsigned shift = footprint > 4.0 * 1024 * 1024 ? 6 : 0;
      const auto [levels, cfg] = scaled(
          sub.caches, micro::latency_chase_config(footprint, true), shift);
      const std::uint64_t lines = cfg.footprint_bytes / 64;
      EXPECT_TRUE(cfg.warmup_steps == lines ||
                  cfg.warmup_steps + cfg.steps <= lines);
      EXPECT_TRUE(has_closed_form(levels, sub.hbm.latency_cycles, cfg));
      expect_chase_matches_oracle(levels, sub.hbm.latency_cycles, cfg);
    }
  }
}

TEST(ChaseOracle, RandomGeometriesMatchTheWalk) {
  Rng rng(2024);
  int closed = 0;
  int fallback = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Levels levels;
    const std::size_t depth = 1 + rng.uniform_index(3);
    double latency = rng.uniform(1.0, 20.0);
    std::uint64_t capacity = 0;  // lines held by the largest level
    for (std::size_t l = 0; l < depth; ++l) {
      const std::uint64_t sets = rng.uniform() < 0.5
                                     ? std::uint64_t{1} << rng.uniform_index(7)
                                     : 1 + rng.uniform_index(96);
      const std::uint64_t assoc = 1 + rng.uniform_index(16);
      levels.push_back(sim::CacheLevelSpec{
          std::string("C").append(std::to_string(l)), sets * assoc * 64, 64,
          assoc, latency});
      capacity = std::max(capacity, sets * assoc);
      latency += rng.uniform(0.5, 150.0);
    }
    const double memory_latency = latency + rng.uniform(0.5, 500.0);

    const std::uint64_t lines = rng.uniform() < 0.8
                                    ? 4 + rng.uniform_index(3 * capacity)
                                    : 4 + rng.uniform_index(16384);
    ChaseConfig cfg;
    cfg.footprint_bytes = lines * 64;
    cfg.seed = rng();
    switch (rng.uniform_index(4)) {
      case 0:  // one warm-up lap, explicit or by default
        cfg.warmup_steps = rng.uniform() < 0.5 ? lines : 0;
        cfg.steps = 1 + rng.uniform_index(13000);
        break;
      case 1:  // cold: the timed loads end within the first lap
        cfg.warmup_steps = 1 + rng.uniform_index(lines - 1);
        cfg.steps = 1 + rng.uniform_index(lines - cfg.warmup_steps);
        break;
      case 2:  // partial warm-up whose timed loads wrap the cycle
        cfg.warmup_steps = 1 + rng.uniform_index(lines - 1);
        cfg.steps = lines - cfg.warmup_steps + 1 + rng.uniform_index(lines);
        break;
      default:  // more than one lap of warm-up
        cfg.warmup_steps = lines + 1 + rng.uniform_index(lines);
        cfg.steps = 1 + rng.uniform_index(4 * lines);
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ++(has_closed_form(levels, memory_latency, cfg) ? closed : fallback);
    expect_chase_matches_oracle(levels, memory_latency, cfg);
    if (HasFailure()) {
      break;
    }
  }
  // Both paths must have been exercised in earnest.
  EXPECT_GT(closed, 300);
  EXPECT_GT(fallback, 300);
}

TEST(ChaseOracle, MixedClassGeometryFallsBack) {
  // 4 sets x 2 ways over 10 lines: two sets hold 3 lines and overflow,
  // two hold 2 and fit, so the permutation decides which loads hit.
  const Levels levels = {sim::CacheLevelSpec{"L1", 4 * 2 * 64, 64, 2, 7.25}};
  obs::Registry registry;
  {
    obs::ScopedRegistry scope(registry);
    sim::CacheHierarchy cache(levels, 100.5);
    EXPECT_FALSE(cache.closed_form_chase(10, 10, 40).has_value());
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.memory_fills(), 0u);
    EXPECT_EQ(cache.level_stats(0).hits, 0u);
    EXPECT_EQ(cache.level_stats(0).misses, 0u);
  }
  ChaseConfig cfg;
  cfg.footprint_bytes = 10 * 64;
  cfg.steps = 40;
  expect_chase_matches_oracle(levels, 100.5, cfg);
}

TEST(ChaseOracle, ClosedFormCoversEveryBenchChase) {
  // fig1_latency's sweep on every system in both modes (table2_microbench
  // probes three of its footprints), plus ablation_model's two 16 MiB
  // chases on Aurora with and without the LLC.
  int chases = 0;
  int closed = 0;
  for (const auto& node : arch::all_systems()) {
    const auto& sub = node.card.subdevice;
    for (bool coalesced : {false, true}) {
      for (double footprint : micro::default_latency_footprints(node)) {
        ++chases;
        closed += has_closed_form(
            sub.caches, sub.hbm.latency_cycles,
            micro::latency_chase_config(footprint, coalesced));
      }
    }
  }
  const auto& aurora = arch::aurora().card.subdevice;
  ChaseConfig ablation;
  ablation.footprint_bytes = 16u << 20;
  ablation.steps = 20000;
  for (const Levels& levels : {aurora.caches, Levels{aurora.caches[0]}}) {
    ++chases;
    closed += has_closed_form(levels, aurora.hbm.latency_cycles, ablation);
  }
  EXPECT_EQ(chases, 138);
  EXPECT_EQ(closed, chases);
}

// chase_simulated() totals a whole-cycle latency with one multiply while
// latency x steps stays below 2^53, and with the walk's blocked loop
// above it.  Both chases run 20000 timed loads (four full blocks and a
// partial one) on a 64-line footprint that a 16-set x 4-way L1 holds,
// so every timed load takes the L1 latency.
constexpr double kTwoTo53 = 9007199254740992.0;
const ChaseConfig kL1ResidentChase = [] {
  ChaseConfig cfg;
  cfg.footprint_bytes = 64 * 64;
  cfg.steps = 20000;
  return cfg;
}();

Levels l1_with_latency(double latency) {
  return {sim::CacheLevelSpec{"L1", 16 * 4 * 64, 64, 4, latency}};
}

TEST(ChaseOracle, IntegralTotalBelow2To53TakesTheProduct) {
  const double latency = std::floor((kTwoTo53 - 1.0) / 20000.0);
  ASSERT_LT(latency * 20000.0, kTwoTo53);
  ASSERT_GT(latency * 20000.0, kTwoTo53 - 20000.0);
  const Levels levels = l1_with_latency(latency);
  ASSERT_TRUE(has_closed_form(levels, 2.0 * latency, kL1ResidentChase));
  expect_chase_matches_oracle(levels, 2.0 * latency, kL1ResidentChase);
  // Every partial sum is an exact integer, so the average is exact.
  EXPECT_EQ(run_chase(&chase_simulated, levels, 2.0 * latency,
                      kL1ResidentChase)
                .result.avg_latency_cycles,
            latency);
}

TEST(ChaseOracle, IntegralTotalFrom2To53TakesTheLoop) {
  // 2^43 + 1 is odd, so once a block's partial sums pass 2^53 each add
  // rounds; the walk's total then differs from the one-rounding product.
  const double latency = 8796093022209.0;  // 2^43 + 1
  ASSERT_GE(latency * 20000.0, kTwoTo53);
  const Levels levels = l1_with_latency(latency);
  ASSERT_TRUE(has_closed_form(levels, 2.0 * latency, kL1ResidentChase));
  expect_chase_matches_oracle(levels, 2.0 * latency, kL1ResidentChase);
  EXPECT_NE(run_chase(&simulate_chase, levels, 2.0 * latency,
                      kL1ResidentChase)
                .result.avg_latency_cycles,
            latency * 20000.0 / 20000.0);
}

// Set records are allocated on the first simulated load; the sequences
// around that moment must still match the reference_access() oracle.

std::vector<std::uint64_t> revisiting_trace(std::uint64_t seed,
                                            std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> trace(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i] = i > 0 && rng.uniform() < 0.4
                   ? trace[i - 1 - rng.uniform_index(std::min<std::size_t>(i, 32))]
                   : rng.uniform_index(1 << 20);
  }
  return trace;
}

void expect_loads_match_reference(sim::CacheHierarchy& cache,
                                  std::uint64_t seed) {
  std::vector<sim::CacheLevelStats> before;
  for (std::size_t i = 0; i < cache.level_count(); ++i) {
    before.push_back(cache.level_stats(i));
  }
  for (const std::uint64_t addr : revisiting_trace(seed, 5000)) {
    const double expected = cache.reference_access(addr);
    ASSERT_EQ(cache.access(addr), expected) << "addr " << addr;
  }
  for (std::size_t i = 0; i < cache.level_count(); ++i) {
    EXPECT_EQ(cache.level_stats(i).hits - before[i].hits,
              cache.reference_level_stats(i).hits);
    EXPECT_EQ(cache.level_stats(i).misses - before[i].misses,
              cache.reference_level_stats(i).misses);
  }
}

TEST(ChaseOracle, ResetBeforeFirstLoadMatchesReference) {
  auto cache = tiny_hierarchy();
  cache.reset();
  cache.reset();
  expect_loads_match_reference(cache, 31);
}

TEST(ChaseOracle, SimulatedLoadsAfterClosedFormMatchReference) {
  auto cache = tiny_hierarchy();
  ChaseConfig cfg;
  cfg.footprint_bytes = 4096;
  cfg.steps = 5000;
  const std::uint64_t lines = cfg.footprint_bytes / 64;
  ASSERT_TRUE(has_closed_form({cache.level_spec(0), cache.level_spec(1)},
                              cache.memory_latency_cycles(), cfg));
  static_cast<void>(chase_simulated(cache, cfg));
  EXPECT_EQ(cache.accesses(), lines + cfg.steps);
  expect_loads_match_reference(cache, 32);
}

// --- reductions --------------------------------------------------------------

TEST(Reduction, SumsAgreeOnBenignData) {
  Rng rng(5);
  std::vector<double> v(10000);
  for (auto& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  const double p = pairwise_sum(v);
  const double k = kahan_sum(v);
  EXPECT_NEAR(p, k, 1e-9);
}

TEST(Reduction, PairwiseBeatsNaiveOnIllConditionedData) {
  // Large value followed by many tiny ones: naive summation loses them.
  std::vector<double> v(1 << 20, 1e-8);
  v[0] = 1e8;
  const double exact = 1e8 + (static_cast<double>(v.size()) - 1) * 1e-8;
  const double pairwise_err = std::fabs(pairwise_sum(v) - exact);
  const double naive_err = std::fabs(naive_sum(v) - exact);
  EXPECT_LE(pairwise_err, naive_err);
}

TEST(Reduction, EmptyAndDotProduct) {
  EXPECT_DOUBLE_EQ(pairwise_sum({}), 0.0);
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(dot(x, bad), pvc::Error);
}

}  // namespace
}  // namespace pvc::kernels
