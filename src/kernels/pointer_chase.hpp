#pragma once
// Pointer-chase latency kernel ("lats", paper §IV-A7 / Figure 1).
//
// A Sattolo single-cycle permutation over line-spaced nodes is chased
// through the simulated cache hierarchy; average load latency (in GPU
// cycles) as a function of footprint reveals L1 / L2 / HBM plateaus.
// Two modes mirror the paper: the original single-lane ring chase, and
// the modified variant where one 16-work-item sub-group issues the load
// together (coalesced access) — each sub-group step touches the lines
// covered by its 16 lanes.
//
// chase_simulated() answers from the hierarchy's closed form
// (sim::CacheHierarchy::closed_form_chase) whenever the cache geometry
// decides every load, as it does for every chase the benches run.  The
// load-by-load walk, simulate_chase(), is its fallback and the oracle
// the closed form is tested against (ChaseOracle.* in
// tests/test_kernels.cpp).

#include <cstddef>
#include <cstdint>

#include "core/rng.hpp"
#include "sim/cache_model.hpp"

namespace pvc::kernels {

/// Result of one chase run.
struct ChaseResult {
  double avg_latency_cycles = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t loads = 0;  ///< distinct line loads issued
};

/// Chase parameters.
struct ChaseConfig {
  std::size_t footprint_bytes = 0;  ///< total array footprint
  bool coalesced = false;           ///< 16-wide sub-group mode
  std::uint64_t steps = 20000;      ///< chase steps to time
  std::uint64_t warmup_steps = 0;   ///< untimed steps (cache warming);
                                    ///< 0 = one full lap over the cycle
  std::uint64_t seed = 42;
};

/// Runs the chase against `hierarchy` (which is reset first): in closed
/// form where the geometry decides it, otherwise via simulate_chase().
/// Either way the result and the hierarchy's counters and metric
/// totals are identical, bit for bit.  Lines the chase would leave
/// resident are unspecified afterwards; reset() before reusing the
/// hierarchy for access().
[[nodiscard]] ChaseResult chase_simulated(pvc::sim::CacheHierarchy& hierarchy,
                                          const ChaseConfig& config);

/// The chase walked load by load: builds the permutation and drives
/// `hierarchy` (reset first) through CacheHierarchy::access(), summing
/// the latencies in 4096-load blocks.  chase_simulated()'s fallback,
/// and the oracle its closed form must match.
[[nodiscard]] ChaseResult simulate_chase(pvc::sim::CacheHierarchy& hierarchy,
                                         const ChaseConfig& config);

/// Real host-memory pointer chase: nanoseconds per dependent load over a
/// footprint.  Only tests call it.
[[nodiscard]] double chase_host_ns_per_load(std::size_t footprint_bytes,
                                            std::uint64_t steps,
                                            std::uint64_t seed = 42);

}  // namespace pvc::kernels
