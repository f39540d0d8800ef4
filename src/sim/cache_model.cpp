#include "sim/cache_model.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "core/error.hpp"

namespace pvc::sim {

namespace {
bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

struct CacheMetrics {
  obs::Counter* accesses;
  obs::Counter* memory_fills;
};

CacheMetrics& cache_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local CacheMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    CacheMetrics c;
    c.accesses = &reg.counter("cache.accesses", "loads",
                              "loads issued to the cache hierarchy");
    c.memory_fills = &reg.counter(
        "cache.memory.fills", "loads", "loads served by DRAM/HBM (all-miss)");
    return c;
  }();
  return m;
}

}  // namespace

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelSpec> specs,
                               double memory_latency_cycles)
    : memory_latency_cycles_(memory_latency_cycles) {
  ensure(memory_latency_cycles > 0.0,
         "CacheHierarchy: memory latency must be positive");
  levels_.reserve(specs.size());
  for (auto& spec : specs) {
    ensure(spec.size_bytes > 0 && spec.line_bytes > 0 &&
               spec.associativity > 0,
           "CacheHierarchy: level '" + spec.name + "' has zero geometry");
    ensure(is_power_of_two(spec.line_bytes),
           "CacheHierarchy: line size must be a power of two");
    ensure(spec.size_bytes % (spec.line_bytes * spec.associativity) == 0,
           "CacheHierarchy: size not divisible by line*associativity");
    Level level;
    level.spec = spec;
    level.sets = spec.size_bytes / (spec.line_bytes * spec.associativity);
    // Per-level handles live for this hierarchy only, so they bind to
    // the registry active where the hierarchy was constructed.
    auto& reg = obs::Registry::active();
    const std::string metric_base = "cache." + lowercase(spec.name);
    level.hits_batch.bind(
        reg.counter(metric_base + ".hits", "loads",
                    "loads whose line was resident in " + spec.name));
    level.misses_batch.bind(
        reg.counter(metric_base + ".misses", "loads",
                    "loads that missed " + spec.name));
    levels_.push_back(std::move(level));
  }
  // Latencies must grow monotonically outward, ending below memory.
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    ensure(levels_[i].spec.latency_cycles > levels_[i - 1].spec.latency_cycles,
           "CacheHierarchy: latencies must increase outward");
  }
  if (!levels_.empty()) {
    ensure(memory_latency_cycles > levels_.back().spec.latency_cycles,
           "CacheHierarchy: memory latency below last cache level");
  }
}

CacheHierarchy::CacheHierarchy(CacheHierarchy&& other) noexcept
    : levels_(std::move(other.levels_)),
      memory_latency_cycles_(other.memory_latency_cycles_),
      accesses_(std::exchange(other.accesses_, 0)),
      memory_fills_(std::exchange(other.memory_fills_, 0)),
      flushed_accesses_(std::exchange(other.flushed_accesses_, 0)),
      flushed_memory_fills_(std::exchange(other.flushed_memory_fills_, 0)) {}

CacheHierarchy::~CacheHierarchy() { flush_metrics(); }

const CacheLevelSpec& CacheHierarchy::level_spec(std::size_t i) const {
  ensure(i < levels_.size(), "CacheHierarchy: bad level index");
  return levels_[i].spec;
}

const CacheLevelStats& CacheHierarchy::level_stats(std::size_t i) const {
  ensure(i < levels_.size(), "CacheHierarchy: bad level index");
  return levels_[i].stats;
}

std::optional<double> CacheHierarchy::closed_form_chase(std::uint64_t lines,
                                                        std::uint64_t warmup,
                                                        std::uint64_t steps) {
  if (accesses_ != 0 || lines == 0) {
    return std::nullopt;
  }
  // The rule reads a line's set as its index mod `sets`, which holds
  // only for 64-byte lines.
  for (const auto& level : levels_) {
    if (level.spec.line_bytes != 64) {
      return std::nullopt;
    }
  }
  std::size_t hit_level = levels_.size();  // == size: memory serves it
  if (warmup < lines && steps <= lines - warmup) {
    // Every load touches its line for the first time: all cold.
  } else if (warmup == lines) {
    // The warm-up lap misses everywhere and leaves each set holding the
    // last `assoc` of its lines in cycle order.  Each timed lap then
    // replays every set's lines in the same cyclic order, so LRU keeps
    // all of them when they fit and evicts each one before its reuse
    // when they do not.  A level that misses passes the whole cycle on
    // to the next, which therefore sees the same pattern.
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      const Level& level = levels_[i];
      const std::uint64_t fewest = lines / level.sets;
      const std::uint64_t most = fewest + (lines % level.sets != 0 ? 1 : 0);
      if (most <= level.spec.associativity) {
        hit_level = i;
        break;
      }
      if (fewest <= level.spec.associativity) {
        return std::nullopt;  // mixed: the cycle's order decides
      }
    }
  } else {
    return std::nullopt;
  }

  for (std::size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].stats.misses += warmup + (i < hit_level ? steps : 0);
  }
  memory_fills_ += warmup;
  if (hit_level < levels_.size()) {
    levels_[hit_level].stats.hits += steps;
  } else {
    memory_fills_ += steps;
  }
  accesses_ += warmup + steps;
  return hit_level < levels_.size() ? levels_[hit_level].spec.latency_cycles
                                    : memory_latency_cycles_;
}

double CacheHierarchy::access(std::uint64_t addr) {
  ++accesses_;
  for (Level& level : levels_) {
    if (level.tags.empty()) {
      level.tags.assign(level.sets * level.spec.associativity, kEmptyWay);
    }
    const std::uint64_t line = addr / level.spec.line_bytes;
    const std::size_t assoc = level.spec.associativity;
    const std::span<std::uint64_t> ways(
        level.tags.data() + (line % level.sets) * assoc, assoc);
    const auto way = std::find(ways.begin(), ways.end(), line);
    if (way != ways.end()) {
      std::rotate(ways.begin(), way, way + 1);  // promote to MRU
      ++level.stats.hits;
      return level.spec.latency_cycles;
    }
    // Inclusive hierarchy: every level nearer than the one that serves
    // the load takes the line as MRU, and its LRU way drops out.
    ++level.stats.misses;
    std::shift_right(ways.begin(), ways.end(), 1);
    ways.front() = line;
  }
  ++memory_fills_;
  return memory_latency_cycles_;
}

double CacheHierarchy::access_run(std::span<const std::uint64_t> addrs) {
  double total = 0.0;
  for (const std::uint64_t addr : addrs) {
    total += access(addr);
  }
  return total;
}

void CacheHierarchy::flush_metrics() {
  // Resolve the thread-locally bound counters only when there is a
  // delta, so a hierarchy that saw no traffic registers no new names.
  if (accesses_ != flushed_accesses_ ||
      memory_fills_ != flushed_memory_fills_) {
    auto& metrics = cache_metrics();
    metrics.accesses->add(accesses_ - flushed_accesses_);
    flushed_accesses_ = accesses_;
    metrics.memory_fills->add(memory_fills_ - flushed_memory_fills_);
    flushed_memory_fills_ = memory_fills_;
  }
  for (auto& level : levels_) {
    level.hits_batch.flush_total(level.stats.hits);
    level.misses_batch.flush_total(level.stats.misses);
  }
}

void CacheHierarchy::reset() {
  flush_metrics();
  for (auto& level : levels_) {
    // Keeps the capacity: the next access() refills it as empty ways.
    level.tags.clear();
    level.stats = CacheLevelStats{};
    level.hits_batch.rebase();
    level.misses_batch.rebase();
  }
  accesses_ = 0;
  memory_fills_ = 0;
  flushed_accesses_ = 0;
  flushed_memory_fills_ = 0;
}

}  // namespace pvc::sim
