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
// chase the benches run (docs/PERFORMANCE.md).  The per-load path
// below serves kernels::simulate_chase() — the chase's fallback and
// the closed form's test oracle — and direct access() callers.  Its
// set records are allocated on the first simulated load, not in the
// constructor, so a hierarchy that only ever answers in closed form
// never pays for them.
//
// Per-load hot-path design: compared to the seed implementation this
// version
//  * extracts line/set/tag with shifts and masks (power-of-two set
//    counts; the 192 MiB PVC LLC has 3·2^16 sets and falls back to a
//    branchless Lemire fast-mod — no div/mod either way);
//  * keeps each set in ONE interleaved record — 32-bit tags
//    (line_addr >> floor(log2 sets), unique because lines in one set
//    differ by a multiple of `sets`), packed LRU rank bytes, and a lazy
//    reset() epoch stamp — in a 64-byte-aligned power-of-two stride, so
//    a probe touches the record's 1-2 host cache lines instead of three
//    separate arrays;
//  * probes tags four-at-a-time (SSE2) and updates the rank bytes with
//    branchless SWAR arithmetic instead of the seed's memmoves;
//  * batches obs metrics: accesses tally into plain members and
//    flush_metrics() pushes the deltas once per kernel instead of 3-5
//    Counter::add calls per load (obs::BatchedCounter);
//  * offers access_run(), whose known-up-front address block lets it
//    software-prefetch each level's set record a fixed distance ahead —
//    the big win once the model state spills the host caches.
// reference_access() keeps the seed algorithm as a from-scratch oracle
// (style of FlowNetwork::reference_rates()); the randomized-trace test
// in tests/test_sim.cpp asserts bit-identical hit/miss/latency totals.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pvc::sim {

namespace detail {
/// Deleter for the aligned set-record allocations.
struct AlignedFree {
  void operator()(void* p) const noexcept;
};
}  // namespace detail

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
  CacheHierarchy(CacheHierarchy&&) = default;
  CacheHierarchy& operator=(CacheHierarchy&&) = default;

  /// Performs one load at byte address `addr`; returns its absolute
  /// latency in cycles and updates the replacement state.
  double access(std::uint64_t addr);

  /// Bulk entry point: performs one load per address and returns the
  /// summed latency in cycles.  Equivalent to accumulating access()
  /// over the block, without per-load call overhead.
  double access_run(std::span<const std::uint64_t> addrs);

  /// Closed form of a cyclic pointer chase from an empty hierarchy:
  /// the 64-byte lines at addresses 0, 64, ..., 64·(lines-1) visited in
  /// any order that forms one cycle, `warmup` untimed loads and then
  /// `steps` timed ones.  Where the geometry decides every load, it
  /// credits exactly the level_stats(), accesses(), memory_fills() and
  /// pending metric deltas that walking the cycle through access_run()
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

  /// From-scratch oracle: the seed's MRU-ordered-ways implementation on
  /// private shadow state (same geometry, separate tags/stats, no obs
  /// metrics).  Feeding access() and reference_access() the same trace
  /// must produce identical latencies and identical hit/miss totals —
  /// asserted by the randomized-trace test in tests/test_sim.cpp.
  double reference_access(std::uint64_t addr);

  /// Pushes the metric deltas accumulated since the previous flush into
  /// the obs registry counters (cache.accesses, cache.<level>.hits/
  /// .misses, cache.memory.fills).  Kernels call this once per run;
  /// reset() and the destructor flush implicitly, so totals match the
  /// seed's per-access instrumentation exactly.
  void flush_metrics();

  /// Drops all cached lines and statistics (flushing metric deltas
  /// first, so registry totals are preserved).
  void reset();

  [[nodiscard]] std::size_t level_count() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] const CacheLevelSpec& level_spec(std::size_t i) const;
  [[nodiscard]] const CacheLevelStats& level_stats(std::size_t i) const;
  /// Oracle-side totals (reference_access() traffic only).
  [[nodiscard]] const CacheLevelStats& reference_level_stats(
      std::size_t i) const;
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
    std::uint32_t assoc = 0;
    std::uint32_t line_shift = 0;  // log2(line_bytes)
    std::uint32_t set_shift = 0;   // floor(log2(sets)); tag = line >> this
    bool sets_pow2 = false;
    std::uint64_t set_mask = 0;    // sets - 1 when sets_pow2
    std::uint64_t fastmod_m = 0;   // Lemire magic when !sets_pow2
    // One interleaved record per set:
    //   words [0, assoc):       tags; kInvalidTag marks an empty way
    //   words [ranks_off, ...): rank bytes — exact-LRU rank per way
    //                           (0 = MRU, assoc-1 = LRU victim, always
    //                           a permutation of 0..assoc-1), padded
    //                           with kRankPad to whole 64-bit words
    //   word epoch_off:         lazy-reset stamp; a record stamped
    //                           != epoch is empty and re-initialised on
    //                           first touch, making reset() O(1)
    // The stride is a power of two and the array is 64-byte aligned, so
    // a probe touches the record's 1-2 host cache lines.  Arrays of
    // 2 MiB and up are 2 MiB-aligned and madvise'd MADV_HUGEPAGE: the
    // big levels (the 25 MB of PVC LLC records) are walked at random,
    // so huge pages turn a guaranteed host-TLB miss per probe into a
    // handful of entries that stay resident.  allocate_records()
    // creates the array on the first simulated load.
    std::unique_ptr<std::uint32_t[], detail::AlignedFree> storage;
    std::uint32_t* records = nullptr;    // == storage.get(); null until
                                         // the first simulated load
    std::uint32_t stride_shift = 0;      // record size = 1<<this words
    std::uint32_t ranks_off = 0;         // word offset of the rank bytes
    std::uint32_t rank_words = 0;        // 64-bit words of rank bytes
    std::uint32_t epoch_off = 0;         // word offset of the stamp
    bool two_lines = false;              // record spans a second line
    std::uint32_t epoch = 1;
    CacheLevelStats stats;
    // Global obs counters (cache.<level>.hits / .misses), shared by
    // every hierarchy instance with the same level name; deltas are
    // pushed by flush_metrics().
    obs::BatchedCounter hits_batch;
    obs::BatchedCounter misses_batch;
    // reference_access() shadow state: the seed layout — tags in MRU
    // order (way 0 most recent), 64-bit line addresses, kInvalidTag64
    // for empty ways.  Allocated lazily on first oracle access.
    std::vector<std::uint64_t> ref_tags;
    CacheLevelStats ref_stats;
  };

  static constexpr std::uint32_t kInvalidTag = ~0u;
  static constexpr std::uint64_t kInvalidTag64 = ~0ull;
  // Filler for rank bytes past `assoc`: above every real rank (so the
  // victim scan skips it) and never promoted (no real rank exceeds it,
  // which also keeps the SWAR byte lanes carry-free).
  static constexpr std::uint8_t kRankPad = 127;

  /// Allocates every level's zero-filled set records; a no-op once
  /// they exist.  Called by the simulated entry points only.
  void allocate_records();
  /// One load through the optimized arrays (no accesses_ bump).
  double access_one(std::uint64_t addr);
  [[nodiscard]] static std::uint64_t set_of(const Level& level,
                                            std::uint64_t line_addr) noexcept;
  [[nodiscard]] std::uint32_t tag_of(const Level& level,
                                     std::uint64_t line_addr) const;

  std::vector<Level> levels_;
  double memory_latency_cycles_;
  std::uint64_t accesses_ = 0;
  std::uint64_t memory_fills_ = 0;
  // flush_metrics() watermarks for the two thread-locally bound
  // counters (cache.accesses / cache.memory.fills).
  std::uint64_t flushed_accesses_ = 0;
  std::uint64_t flushed_memory_fills_ = 0;
  std::uint64_t ref_accesses_ = 0;
  bool records_allocated_ = false;
};

}  // namespace pvc::sim
