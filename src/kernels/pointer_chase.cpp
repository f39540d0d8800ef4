#include "kernels/pointer_chase.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "core/error.hpp"

namespace pvc::kernels {

namespace {

// Nodes are line-spaced so each chase step touches a fresh line.  In
// coalesced mode the 16 lanes of a sub-group read 16 consecutive
// 4-byte indices — one 64-byte line per step — so per-step latency is
// identical but the footprint they cover is shared across lanes.
constexpr std::size_t kLine = 64;
// The walk feeds the hierarchy this many loads per access_run() call.
constexpr std::size_t kBlock = 4096;

std::size_t chase_nodes(const ChaseConfig& config) {
  ensure(config.footprint_bytes >= 256,
         "chase_simulated: footprint too small");
  ensure(config.steps > 0, "chase_simulated: need at least one step");
  return config.footprint_bytes / kLine;
}

std::uint64_t chase_warmup(const ChaseConfig& config, std::size_t nodes) {
  return config.warmup_steps > 0 ? config.warmup_steps
                                 : static_cast<std::uint64_t>(nodes);
}

// `steps` loads that each take `latency`, summed the way the walk sums
// them: per-block totals from access_run(), added in block order.  For
// a whole-cycle latency whose total stays below 2^53 every partial sum
// is an exact integer, so the walk's sum is the product; any other
// latency takes the loop, whose rounding matches the walk bit for bit.
double blocked_total(double latency, std::uint64_t steps) {
  constexpr double kExactIntegers = 9007199254740992.0;  // 2^53
  const double product = latency * static_cast<double>(steps);
  if (latency == std::trunc(latency) && std::fabs(product) < kExactIntegers) {
    return product;
  }
  const auto block_total = [latency](std::uint64_t n) {
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      total += latency;
    }
    return total;
  };
  const double full = steps >= kBlock ? block_total(kBlock) : 0.0;
  double total = 0.0;
  for (; steps >= kBlock; steps -= kBlock) {
    total += full;
  }
  return steps > 0 ? total + block_total(steps) : total;
}

ChaseResult timed_result(double total, std::uint64_t steps) {
  // Both modes load exactly one line per step (the coalesced lanes
  // fall inside one line); step latency is that load's latency.
  ChaseResult result;
  result.loads = steps;
  result.steps = steps;
  result.avg_latency_cycles = total / static_cast<double>(steps);
  return result;
}

}  // namespace

ChaseResult chase_simulated(pvc::sim::CacheHierarchy& hierarchy,
                            const ChaseConfig& config) {
  const std::size_t nodes = chase_nodes(config);
  hierarchy.reset();
  const auto latency = hierarchy.closed_form_chase(
      nodes, chase_warmup(config, nodes), config.steps);
  if (!latency) {
    return simulate_chase(hierarchy, config);
  }
  hierarchy.flush_metrics();
  return timed_result(blocked_total(*latency, config.steps), config.steps);
}

ChaseResult simulate_chase(pvc::sim::CacheHierarchy& hierarchy,
                           const ChaseConfig& config) {
  const std::size_t nodes = chase_nodes(config);
  hierarchy.reset();

  std::vector<std::uint32_t> next(nodes);
  pvc::Rng rng(config.seed);
  pvc::sattolo_cycle(rng, next.data(), nodes);

  // Addresses depend only on the permutation, not on access results, so
  // the chase fills fixed-size blocks and drives the hierarchy through
  // the bulk access_run() entry point — one call per block instead of
  // one per load.
  std::vector<std::uint64_t> block(kBlock);
  std::uint32_t idx = 0;
  const auto run_steps = [&](std::uint64_t steps) {
    double total = 0.0;
    std::uint64_t remaining = steps;
    while (remaining > 0) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kBlock));
      for (std::size_t b = 0; b < n; ++b) {
        block[b] = static_cast<std::uint64_t>(idx) * kLine;
        idx = next[idx];
      }
      total += hierarchy.access_run({block.data(), n});
      remaining -= n;
    }
    return total;
  };

  run_steps(chase_warmup(config, nodes));
  const double total = run_steps(config.steps);
  hierarchy.flush_metrics();
  return timed_result(total, config.steps);
}

double chase_host_ns_per_load(std::size_t footprint_bytes,
                              std::uint64_t steps, std::uint64_t seed) {
  ensure(footprint_bytes >= 256, "chase_host: footprint too small");
  constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);
  const std::size_t nodes = footprint_bytes / 64;
  ensure(nodes >= 2, "chase_host: need at least two nodes");

  // Table of line-spaced indices forming one cycle.
  std::vector<std::uint32_t> order(nodes);
  pvc::Rng rng(seed);
  pvc::sattolo_cycle(rng, order.data(), nodes);
  std::vector<std::uint32_t> table(nodes * kStride, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    table[i * kStride] = order[i] * static_cast<std::uint32_t>(kStride);
  }

  // Warm one lap, then time dependent loads.
  volatile std::uint32_t sink = 0;
  std::uint32_t idx = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    idx = table[idx];
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < steps; ++s) {
    idx = table[idx];
  }
  const auto stop = std::chrono::steady_clock::now();
  sink = idx;
  static_cast<void>(sink);

  const double ns =
      std::chrono::duration<double, std::nano>(stop - start).count();
  return ns / static_cast<double>(steps);
}

}  // namespace pvc::kernels
