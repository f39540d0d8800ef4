// Unit tests for src/obs: counter/gauge/histogram semantics, registry
// identity and type checking, snapshot isolation, runtime disable, the
// exporters, the exact-byte flow-network integration, and the
// docs/OBSERVABILITY.md name cross-check.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "arch/systems.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "runtime/memory.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"
#include "sim/cache_model.hpp"

namespace pvc::obs {
namespace {

// Restores the runtime collection switch even when an assertion fails.
struct EnabledGuard {
  bool saved = enabled();
  ~EnabledGuard() { set_enabled(saved); }
};

// --- primitives --------------------------------------------------------------

TEST(Counter, AccumulatesMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  std::uint64_t last = c.value();
  for (int i = 0; i < 100; ++i) {
    c.add(static_cast<std::uint64_t>(i));
    EXPECT_GE(c.value(), last);
    last = c.value();
  }
}

TEST(Gauge, SetOverwritesAddAccumulates) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const auto lo = Histogram::bucket_lower_bound(i);
    const auto hi = Histogram::bucket_upper_bound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(lo), i);
    EXPECT_EQ(Histogram::bucket_index(hi), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(hi + 1, Histogram::bucket_lower_bound(i + 1));
    }
  }
}

TEST(Histogram, ObservationsLandInTheirBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(7);
  h.observe(7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // [4, 7]
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(Histogram, WeightedObservations) {
  Histogram h;
  h.observe(1200, 0.25);  // e.g. 0.25 s at 1200 MHz
  h.observe(1600, 0.75);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.weight_sum(), 1.0);
  EXPECT_DOUBLE_EQ(h.value_sum(), 1200.0 * 0.25 + 1600.0 * 0.75);
  EXPECT_DOUBLE_EQ(h.bucket_weight(Histogram::bucket_index(1200)), 1.0);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, SameNameReturnsSameObject) {
  Registry reg;
  Counter& a = reg.counter("x.count", "items", "test");
  Counter& b = reg.counter("x.count", "items", "test");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, TypeMismatchThrows) {
  Registry reg;
  reg.counter("x", "items", "test");
  EXPECT_THROW(reg.gauge("x", "items", "test"), pvc::Error);
  EXPECT_THROW(reg.histogram("x", "items", "test"), pvc::Error);
}

TEST(Registry, NamesAreSorted) {
  Registry reg;
  reg.counter("b", "x", "");
  reg.counter("a", "x", "");
  reg.gauge("c", "x", "");
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(Registry, SnapshotIsDeepCopy) {
  Registry reg;
  Counter& c = reg.counter("deep.copy", "items", "test");
  Histogram& h = reg.histogram("deep.hist", "items", "test");
  c.add(5);
  h.observe(3);
  const Snapshot before = reg.snapshot();
  c.add(100);
  h.observe(3000);
  EXPECT_EQ(before.count("deep.copy"), 5u);
  EXPECT_EQ(before.count("deep.hist"), 1u);
  ASSERT_EQ(before.find("deep.hist")->buckets.size(), 1u);
  const Snapshot after = reg.snapshot();
  EXPECT_EQ(after.count("deep.copy"), 105u);
  EXPECT_EQ(after.count("deep.hist"), 2u);
}

TEST(Registry, ResetValuesKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("r.count", "items", "help text");
  reg.gauge("r.gauge", "J", "").set(3.0);
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(c.value(), 0u);
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("r.gauge"), 0.0);
  EXPECT_EQ(snap.find("r.count")->unit, "items");
}

TEST(Registry, DisabledModeDropsMutations) {
  EnabledGuard guard;
  Registry reg;
  Counter& c = reg.counter("off.count", "items", "");
  Gauge& g = reg.gauge("off.gauge", "J", "");
  Histogram& h = reg.histogram("off.hist", "items", "");
  set_enabled(false);
  EXPECT_FALSE(enabled());
  c.add(10);
  g.set(1.0);
  g.add(1.0);
  h.observe(5, 2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// --- exporters ---------------------------------------------------------------

Registry& exporter_fixture() {
  static Registry reg;
  static const bool initialized = [] {
    reg.counter("exp.count", "items", "a counter").add(3);
    reg.gauge("exp.gauge", "J", "a gauge").set(2.5);
    reg.histogram("exp.hist", "items", "a histogram").observe(4, 2.0);
    return true;
  }();
  static_cast<void>(initialized);
  return reg;
}

TEST(Exporters, TableListsEveryMetric) {
  const std::string text = to_table(exporter_fixture().snapshot()).to_string();
  EXPECT_NE(text.find("exp.count"), std::string::npos);
  EXPECT_NE(text.find("exp.gauge"), std::string::npos);
  EXPECT_NE(text.find("exp.hist"), std::string::npos);
}

TEST(Exporters, CsvHasHeaderAndBucketRows) {
  const std::string text = to_csv(exporter_fixture().snapshot()).to_string();
  EXPECT_NE(text.find("metric,type,unit,value,count,bucket_lo,bucket_hi"),
            std::string::npos);
  EXPECT_NE(text.find("exp.count,counter,items,3"), std::string::npos);
  EXPECT_NE(text.find("histogram_bucket"), std::string::npos);
}

TEST(Exporters, JsonMentionsEveryMetric) {
  const std::string text = to_json(exporter_fixture().snapshot());
  EXPECT_NE(text.find("\"exp.count\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\""), std::string::npos);
}

// --- batched counters --------------------------------------------------------

TEST(BatchedCounter, FlushPushesDeltasAndRebaseForgetsTheWatermark) {
  Registry reg;
  Counter& target = reg.counter("batched.events", "events", "test");
  BatchedCounter batch(target);

  batch.flush_total(10);
  EXPECT_EQ(target.value(), 10u);
  batch.flush_total(10);  // no new events: no-op
  EXPECT_EQ(target.value(), 10u);
  batch.flush_total(25);  // pushes only the 15-event delta
  EXPECT_EQ(target.value(), 25u);
  EXPECT_EQ(batch.flushed_total(), 25u);

  // The owner zeroed its running total (e.g. CacheHierarchy::reset());
  // rebase() realigns the watermark so already-flushed events are not
  // subtracted from the registry.
  batch.rebase();
  batch.flush_total(5);
  EXPECT_EQ(target.value(), 30u);
}

TEST(BatchedCounter, CacheFlushMatchesPerAccessTotals) {
  // Batched cache metrics must land the same registry totals the seed's
  // per-access Counter::add calls produced: counters move only on
  // flush_metrics(), and the deltas equal the model's own statistics.
  Registry local;
  ScopedRegistry scope(local);
  sim::CacheHierarchy caches(arch::aurora().card.subdevice.caches,
                             arch::aurora().card.subdevice.hbm.latency_cycles);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    caches.access((i % 64) * 64);
  }
  EXPECT_EQ(local.snapshot().count("cache.accesses"), 0u);  // not yet flushed
  caches.flush_metrics();
  const Snapshot snap = local.snapshot();
  EXPECT_EQ(snap.count("cache.accesses"), 1000u);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t l = 0; l < caches.level_count(); ++l) {
    hits += caches.level_stats(l).hits;
    misses += caches.level_stats(l).misses;
  }
  EXPECT_EQ(snap.count("cache.l1.hits") + snap.count("cache.llc.hits"), hits);
  EXPECT_EQ(snap.count("cache.l1.misses") + snap.count("cache.llc.misses"),
            misses);
  EXPECT_EQ(snap.count("cache.memory.fills"), caches.memory_fills());
  // A second flush with no traffic in between must not move anything.
  caches.flush_metrics();
  EXPECT_EQ(local.snapshot().count("cache.accesses"), 1000u);
}

// --- layer integration -------------------------------------------------------

TEST(Integration, MemcpyH2dCountsExactPayloadBytes) {
  rt::NodeSim sim(arch::aurora());
  rt::Queue q(sim, 0);
  // Prime lazily-registered metrics so both snapshots see the same set.
  q.memcpy_h2d(1.0 * MiB);
  q.wait();

  const double payload = 12345678.0;  // deliberately not a power of two
  const Snapshot before = Registry::global().snapshot();
  q.memcpy_h2d(payload);
  q.wait();
  const Snapshot after = Registry::global().snapshot();

  EXPECT_EQ(after.count("net.bytes_total") - before.count("net.bytes_total"),
            static_cast<std::uint64_t>(payload));
  // The H2D path crosses a PCIe link, so the class counter moves too.
  EXPECT_EQ(after.count("net.pcie.bytes") - before.count("net.pcie.bytes"),
            static_cast<std::uint64_t>(payload));
  EXPECT_EQ(after.count("queue.h2d_transfers") -
                before.count("queue.h2d_transfers"),
            1u);
}

TEST(Integration, LayersPopulateTheGlobalRegistry) {
  rt::NodeSim sim(arch::aurora());
  rt::Queue q(sim, 0);
  rt::KernelDesc k;
  k.kind = arch::WorkloadKind::Stream;
  k.bytes = 1.0 * GB;
  q.submit(k);
  q.memcpy_d2h(1.0 * MiB);
  q.wait();

  rt::MemoryManager mem(arch::aurora());
  const auto buf = mem.allocate(rt::MemKind::Device, 0, 1.0 * MiB);

  sim::CacheHierarchy caches(arch::aurora().card.subdevice.caches,
                             arch::aurora().card.subdevice.hbm.latency_cycles);
  caches.access(0);
  caches.access(0);
  caches.flush_metrics();  // batched deltas land on flush (docs/PERFORMANCE.md)

  comm::Communicator comm = comm::Communicator::explicit_scaling(sim);
  comm::barrier(comm);

  const Snapshot snap = Registry::global().snapshot();
  EXPECT_GT(snap.count("queue.kernels_submitted"), 0u);
  EXPECT_GT(snap.value("power.energy_joules"), 0.0);
  EXPECT_GT(snap.count("power.time_at_freq_mhz"), 0u);
  EXPECT_GT(snap.count("cache.l1.hits"), 0u);
  EXPECT_GT(snap.count("mem.allocations"), 0u);
  EXPECT_GT(snap.count("comm.collectives"), 0u);
  EXPECT_GT(snap.count("comm.collective_rounds"), 0u);
  EXPECT_GT(snap.count("comm.messages"), 0u);
}

// --- documentation cross-check -----------------------------------------------

TEST(Documentation, ObservabilityDocListsEveryRegisteredMetric) {
  // Exercise every instrumented layer so the global registry holds the
  // full lazily-registered name set.
  rt::NodeSim sim(arch::aurora());
  rt::Queue q(sim, 0);
  rt::KernelDesc k;
  k.kind = arch::WorkloadKind::Stream;
  k.bytes = 1.0 * GB;
  q.memcpy_h2d(1.0 * MiB);
  q.submit(k);
  q.memcpy_d2h(1.0 * MiB);
  q.wait();
  rt::MemoryManager mem(arch::aurora());
  static_cast<void>(mem.allocate(rt::MemKind::Shared, 0, 1.0 * MiB));
  sim::CacheHierarchy aurora_caches(
      arch::aurora().card.subdevice.caches,
      arch::aurora().card.subdevice.hbm.latency_cycles);
  aurora_caches.access(0);
  comm::Communicator comm = comm::Communicator::explicit_scaling(sim);
  comm::barrier(comm);

  std::ifstream in(PVC_SOURCE_DIR "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(in.good()) << "docs/OBSERVABILITY.md missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  for (const auto& name : Registry::global().names()) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric `" << name << "` is not documented in "
        << "docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace pvc::obs
