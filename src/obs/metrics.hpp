#pragma once
// Metrics & counters subsystem.
//
// A lightweight process-wide registry of named counters (uint64_t),
// gauges (double) and histograms (fixed log2 buckets, optionally
// weighted).  Instrumented layers (sim/flow_network, sim/power,
// sim/cache_model, runtime/queue, runtime/memory, comm/communicator)
// resolve their metric handles once and bump them on the hot path, so
// questions like "how many bytes crossed each Xe-Link plane?" or "how
// long did the governor hold 1.2 GHz?" are answerable without re-reading
// the code.  See docs/OBSERVABILITY.md for every emitted metric name.
//
// Overhead: obs::set_enabled(false) short-circuits mutations behind a
// single branch on a plain bool.
//
// Concurrency: each simulation is single-threaded, but independent
// simulations may run on worker threads (bench ParallelSweep).  Registry
// scoping keeps the registry safe there: ScopedRegistry installs a
// thread-local registry that Registry::active() serves instead of the
// process-global one; each worker collects into its own registry and
// the sweep merges them into the global registry in deterministic
// (task-index) order, so threads=N snapshots are byte-identical to
// threads=1.
//
// Values are read through the Snapshot API: a deep copy of every
// metric's state at one instant, decoupled from later mutation, which
// the exporters (obs/exporters.hpp) render as a table, CSV or JSON.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pvc::obs {

namespace detail {
inline bool g_runtime_enabled = true;
}  // namespace detail

/// Runtime collection switch; mutations are dropped while disabled.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_runtime_enabled;
}
inline void set_enabled(bool on) noexcept { detail::g_runtime_enabled = on; }

enum class MetricType { Counter, Gauge, Histogram };

[[nodiscard]] std::string metric_type_name(MetricType t);

/// Monotonically increasing uint64 count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if (detail::g_runtime_enabled) {
      value_ += delta;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
};

/// Double-valued quantity; supports both set() and accumulate via add().
class Gauge {
 public:
  void set(double v) noexcept {
    if (detail::g_runtime_enabled) {
      value_ = v;
    }
  }
  void add(double delta) noexcept {
    if (detail::g_runtime_enabled) {
      value_ += delta;
    }
  }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  friend class Registry;
  double value_ = 0.0;
};

/// Histogram over uint64 values with fixed log2 buckets: bucket 0 holds
/// value 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].  Each
/// observation carries an optional double weight (e.g. seconds spent at
/// a frequency), so both "how many" and "for how long" are recorded.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // 0 plus one per bit

  void observe(std::uint64_t value, double weight = 1.0) noexcept {
    if (detail::g_runtime_enabled) {
      const std::size_t b = bucket_index(value);
      ++bucket_counts_[b];
      bucket_weights_[b] += weight;
      ++count_;
      value_sum_ += static_cast<double>(value) * weight;
      weight_sum_ += weight;
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double weight_sum() const noexcept { return weight_sum_; }
  /// Sum of value*weight over observations (mean = value_sum/weight_sum).
  [[nodiscard]] double value_sum() const noexcept { return value_sum_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] double bucket_weight(std::size_t i) const;

  /// Bucket that holds `value`.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Smallest / largest value in bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_lower_bound(std::size_t i);
  [[nodiscard]] static std::uint64_t bucket_upper_bound(std::size_t i);

 private:
  friend class Registry;
  std::uint64_t bucket_counts_[kBuckets] = {};
  double bucket_weights_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double value_sum_ = 0.0;
  double weight_sum_ = 0.0;
};

/// Batches hot-path Counter updates.  Per-event `Counter::add(1)` calls
/// cost an enabled-check on every event; layers with million-event hot loops (sim/cache_model)
/// instead keep their own running totals and push them through
/// `flush_total()` once per kernel/batch — one Counter::add for the
/// whole delta, with totals identical to unbatched instrumentation
/// (asserted by tests/test_obs.cpp, see docs/OBSERVABILITY.md).
///
/// `flush_total(total)` adds `total - <previous flush total>` to the
/// bound counter, so the caller only maintains its monotone running
/// total.  When the owner's totals restart at zero (e.g. a stats
/// reset), call `rebase()` after flushing so the next flush does not
/// double-count.
class BatchedCounter {
 public:
  BatchedCounter() = default;
  explicit BatchedCounter(Counter& target) : target_(&target) {}

  void bind(Counter& target) noexcept { target_ = &target; }

  /// Pushes the delta since the previous flush into the bound counter.
  void flush_total(std::uint64_t total) noexcept {
    if (target_ != nullptr && total != flushed_) {
      target_->add(total - flushed_);
    }
    flushed_ = total;
  }

  /// Forgets the flush watermark; pair with the owner zeroing its total.
  void rebase() noexcept { flushed_ = 0; }

  [[nodiscard]] std::uint64_t flushed_total() const noexcept {
    return flushed_;
  }

 private:
  Counter* target_ = nullptr;
  std::uint64_t flushed_ = 0;
};

/// One non-empty histogram bucket inside a snapshot.
struct SnapshotBucket {
  std::uint64_t lower = 0;  ///< smallest value the bucket holds
  std::uint64_t upper = 0;  ///< largest value the bucket holds
  std::uint64_t count = 0;
  double weight = 0.0;
};

/// Point-in-time copy of one metric.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::Counter;
  std::string unit;
  std::string help;
  /// Counter value, gauge value, or histogram weight sum.
  double value = 0.0;
  /// Counter value or histogram observation count (0 for gauges).
  std::uint64_t count = 0;
  std::vector<SnapshotBucket> buckets;  ///< histograms only; non-empty only
};

/// Deep copy of the whole registry at one instant.
struct Snapshot {
  std::vector<MetricSample> samples;  ///< sorted by name

  [[nodiscard]] const MetricSample* find(const std::string& name) const;
  /// value of `name`; 0.0 when absent.
  [[nodiscard]] double value(const std::string& name) const;
  /// count of `name`; 0 when absent.
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
};

/// Name -> metric dictionary.  Metric names are dot-separated paths
/// ("net.pcie.bytes"); re-requesting a name returns the same object, and
/// requesting an existing name as a different type throws pvc::Error.
/// Handles returned by counter()/gauge()/histogram() stay valid for the
/// registry's lifetime.  A single Registry is not thread-safe — each
/// simulation thread collects into its own via ScopedRegistry.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-unique, never-reused identity (a fresh value per
  /// construction).  The thread_local metric caches hot layers keep
  /// (sim/flow_network.cpp, comm/cluster.cpp, ...) must key their
  /// rebind check on this id, NOT on the registry's address: a
  /// short-lived registry (per-sweep-task) can be freed and
  /// the next one malloc'd at the same address, which an address
  /// compare mistakes for "still bound" — leaving the cache pointing at
  /// handles of the dead registry.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// The process-wide registry every instrumented layer reports into.
  [[nodiscard]] static Registry& global();

  /// The registry instrumented layers should mutate from this thread:
  /// the thread's scoped registry when a ScopedRegistry is live, the
  /// process-wide one otherwise.
  [[nodiscard]] static Registry& active() noexcept;

  /// Accumulates every metric of `other` into this registry (counters
  /// and histogram buckets add counts, gauges add values), registering
  /// missing names with `other`'s unit/help.  Merging worker registries
  /// in a fixed order yields deterministic totals regardless of how the
  /// workers were interleaved.
  void merge_from(const Registry& other);

  Counter& counter(const std::string& name, const std::string& unit,
                   const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& unit,
               const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& unit,
                       const std::string& help);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Registered metric names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every metric's value, keeping registrations (units, help).
  /// Tests use this to measure per-operation deltas.
  void reset_values();

 private:
  struct Entry;
  Entry& find_or_create(const std::string& name, MetricType type,
                        const std::string& unit, const std::string& help);

  // std::unique_ptr keeps handle addresses stable across insertions.
  struct Entry {
    std::string name;
    MetricType type;
    std::string unit;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
  std::uint64_t id_ = 0;
};

/// RAII scope that routes Registry::active() on the constructing thread
/// to `registry` (nesting restores the previous scope on destruction).
/// Instrumented layers cache their metric handles per (thread, active
/// registry), so entering a scope transparently re-points the hot-path
/// bumps at the scoped registry — bench/parallel_sweep.hpp uses this to
/// give each sweep worker an isolated registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry) noexcept;
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace pvc::obs
