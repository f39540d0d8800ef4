#pragma once
// Set-associative cache hierarchy model.
//
// Used by the `lats` pointer-chase microbenchmark (paper Figure 1): a
// load's latency is the absolute access latency of the first level whose
// tag array holds the line (the usual convention for latency plots), and
// a miss fills the line into every level (inclusive hierarchy).  LRU
// replacement within each set, so capacity and conflict behaviour
// produce the same knees the paper measures.
//
// Figure 1's chase does not walk the model load by load.
// closed_form_chase() derives its counters and latency from the set
// geometry alone wherever that decides every load, which covers every
// chase the benches run (docs/PERFORMANCE.md, "Cache model").
// access() walks one load through the levels: each level keeps one
// vector of line addresses, `associativity` per set with the set's
// ways in MRU order, so a hit rotates its way to the front and a fill
// shifts the LRU way out.  The vectors are allocated by the first
// access(), never by the constructor, so a hierarchy that only answers
// in closed form holds no tag array.  Loads tally their hits and misses
// in plain members, and flush_metrics() pushes the deltas to the obs
// registry once per kernel (obs::BatchedCounter).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pvc::sim {

/// Static description of one cache level.
struct CacheLevelSpec {
  std::string name;          ///< e.g. "L1", "L2"
  std::uint64_t size_bytes = 0;
  std::uint64_t line_bytes = 64;
  std::uint64_t associativity = 8;
  double latency_cycles = 0.0;  ///< absolute load-to-use latency on hit
};

/// Per-level hit/miss counters.
struct CacheLevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Inclusive multi-level cache with LRU sets plus a flat memory latency.
class CacheHierarchy {
 public:
  /// `levels` ordered nearest-first (L1, L2, ...).  `memory_latency_cycles`
  /// is the absolute latency of a load served by DRAM/HBM.
  CacheHierarchy(std::vector<CacheLevelSpec> levels,
                 double memory_latency_cycles);
  ~CacheHierarchy();
  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;
  /// Takes the source's lines, totals and flush watermarks, leaving it
  /// nothing to flush, so each load reaches the registry once.
  CacheHierarchy(CacheHierarchy&& other) noexcept;
  CacheHierarchy& operator=(CacheHierarchy&&) = delete;

  /// Performs one load at byte address `addr`; returns its absolute
  /// latency in cycles and updates the replacement state.
  double access(std::uint64_t addr);

  /// Performs one load per address, in order, and returns their
  /// latencies summed in that order.  perfbench's traced probes replay
  /// the chase's blocks through it.
  double access_run(std::span<const std::uint64_t> addrs);

  /// Closed form of a cyclic pointer chase from an empty hierarchy:
  /// the 64-byte lines at addresses 0, 64, ..., 64·(lines-1) visited in
  /// any order that forms one cycle, `warmup` untimed loads and then
  /// `steps` timed ones.  Where the geometry decides every load, it
  /// credits exactly the level_stats(), accesses(), memory_fills() and
  /// pending metric deltas that walking the cycle through access()
  /// would, and returns the latency every timed load sees.  The rule,
  /// with n = lines, W = warmup and S = steps:
  ///  * W < n and W + S <= n: every load is a first touch and misses
  ///    every level;
  ///  * W == n: walking the levels nearest-first, a level whose sets
  ///    each hold at most `assoc` of the n lines (ceil(n/sets) <=
  ///    assoc) hits every timed load, and one whose sets each hold
  ///    more (floor(n/sets) > assoc) misses every timed load.
  /// It returns std::nullopt and changes nothing for any other W, for
  /// a level with both kinds of sets (the cycle's order then decides
  /// the result), for a line size other than 64 B, and when loads have
  /// been issued since reset().  The credited loads leave no line
  /// resident: a later access() starts from empty sets.
  [[nodiscard]] std::optional<double> closed_form_chase(std::uint64_t lines,
                                                        std::uint64_t warmup,
                                                        std::uint64_t steps);

  /// Pushes the metric deltas accumulated since the previous flush into
  /// the obs registry counters (cache.accesses, cache.<level>.hits/
  /// .misses, cache.memory.fills).  Kernels call this once per run;
  /// reset() and the destructor flush implicitly, so the totals equal
  /// one counter bump per load.
  void flush_metrics();

  /// Drops all cached lines and statistics (flushing metric deltas
  /// first, so registry totals are preserved).
  void reset();

  [[nodiscard]] std::size_t level_count() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] const CacheLevelSpec& level_spec(std::size_t i) const;
  [[nodiscard]] const CacheLevelStats& level_stats(std::size_t i) const;
  [[nodiscard]] double memory_latency_cycles() const noexcept {
    return memory_latency_cycles_;
  }
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  /// Loads served by DRAM/HBM (missed every level).
  [[nodiscard]] std::uint64_t memory_fills() const noexcept {
    return memory_fills_;
  }

 private:
  struct Level {
    CacheLevelSpec spec;
    std::uint64_t sets = 0;
    // Line addresses, `associativity` ways per set, each set's ways in
    // MRU order (way 0 most recent); kEmptyWay marks a way never
    // filled.  Empty while no line is resident: access() fills it on
    // first use, reset() clears it.
    std::vector<std::uint64_t> tags;
    CacheLevelStats stats;
    // Global obs counters (cache.<level>.hits / .misses), shared by
    // every hierarchy instance with the same level name; deltas are
    // pushed by flush_metrics().
    obs::BatchedCounter hits_batch;
    obs::BatchedCounter misses_batch;
  };

  static constexpr std::uint64_t kEmptyWay = ~0ull;

  std::vector<Level> levels_;
  double memory_latency_cycles_;
  std::uint64_t accesses_ = 0;
  std::uint64_t memory_fills_ = 0;
  // flush_metrics() watermarks for the two thread-locally bound
  // counters (cache.accesses / cache.memory.fills).
  std::uint64_t flushed_accesses_ = 0;
  std::uint64_t flushed_memory_fills_ = 0;
};

}  // namespace pvc::sim
