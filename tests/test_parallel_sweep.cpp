// Tests for the bench ParallelSweep runner: metrics snapshots must be
// byte-identical for any thread count (task-index-order merge), worker
// failures must propagate, and thread-count resolution must be sane.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "parallel_sweep.hpp"

namespace {

/// Runs eight metric-bumping tasks under `threads` workers and returns
/// the merged snapshot of a private base registry.  The gauge sums are
/// deliberately order-sensitive in floating point (1e16 + 1.0 + ...)
/// so any merge-order nondeterminism shows up as a bit difference.
pvc::obs::Snapshot run_sweep(std::size_t threads) {
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  pvcbench::ParallelSweep sweep(threads);
  for (int t = 0; t < 8; ++t) {
    sweep.add([t] {
      auto& reg = pvc::obs::Registry::active();
      reg.counter("sweep.tasks", "calls", "tasks executed").add(1);
      reg.gauge("sweep.sum", "", "order-sensitive fold")
          .add(t == 0 ? 1e16 : 1.0);
      reg.histogram("sweep.bytes", "B", "per-task bytes")
          .observe(static_cast<std::uint64_t>(1) << t);
    });
  }
  sweep.run();
  return base.snapshot();
}

void expect_identical(const pvc::obs::Snapshot& a,
                      const pvc::obs::Snapshot& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& sa = a.samples[i];
    const auto& sb = b.samples[i];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.count, sb.count);
    EXPECT_EQ(sa.value, sb.value);  // exact: determinism is the contract
    ASSERT_EQ(sa.buckets.size(), sb.buckets.size());
    for (std::size_t k = 0; k < sa.buckets.size(); ++k) {
      EXPECT_EQ(sa.buckets[k].count, sb.buckets[k].count);
      EXPECT_EQ(sa.buckets[k].weight, sb.buckets[k].weight);
    }
  }
}

TEST(ParallelSweep, MetricsSnapshotIdenticalAcrossThreadCounts) {
  const auto serial = run_sweep(1);
  if (pvc::obs::compiled_in()) {
    EXPECT_EQ(serial.count("sweep.tasks"), 8u);
    double expected_sum = 0.0;  // fold in task-index order, like the merge
    for (int t = 0; t < 8; ++t) {
      expected_sum += (t == 0 ? 1e16 : 1.0);
    }
    EXPECT_EQ(serial.value("sweep.sum"), expected_sum);
  }
  expect_identical(serial, run_sweep(2));
  expect_identical(serial, run_sweep(4));
  expect_identical(serial, run_sweep(16));  // more workers than tasks
}

TEST(ParallelSweep, TaskMetricsDoNotLeakIntoCallerMidRun) {
  // Tasks write to private registries; the caller's registry only sees
  // the fold after run() returns.
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  pvcbench::ParallelSweep sweep(1);
  sweep.add([&base] {
    auto& reg = pvc::obs::Registry::active();
    EXPECT_NE(&reg, &base);
    reg.counter("leak.check", "calls", "").add(3);
  });
  sweep.run();
  if (pvc::obs::compiled_in()) {
    EXPECT_EQ(base.snapshot().count("leak.check"), 3u);
  }
}

TEST(ParallelSweep, FirstFailureByIndexPropagates) {
  pvcbench::ParallelSweep sweep(4);
  sweep.add([] {});
  sweep.add([] { throw std::runtime_error("task one failed"); });
  sweep.add([] { throw std::runtime_error("task two failed"); });
  try {
    sweep.run();
    FAIL() << "run() should rethrow the first failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task one failed");
  }
}

TEST(ParallelSweep, SecondRunIsAnError) {
  // A sweep is single-use.  A second run() used to execute every task
  // again and merge its metrics twice; now it fails by name and runs
  // nothing.
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  int executed = 0;
  pvcbench::ParallelSweep sweep(1);
  sweep.add([&executed] {
    ++executed;
    pvc::obs::Registry::active()
        .counter("sweep.tasks", "calls", "tasks executed")
        .add(1);
  });
  sweep.run();
  try {
    sweep.run();
    FAIL() << "a second run() should throw";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument);
    EXPECT_NE(std::string(e.what()).find("single-use"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(executed, 1);
  if (pvc::obs::compiled_in()) {
    EXPECT_EQ(base.snapshot().count("sweep.tasks"), 1u);
  }
}

TEST(ParallelSweep, ThreadCountResolution) {
  EXPECT_GE(pvcbench::ParallelSweep(0).thread_count(), 1u);
  EXPECT_EQ(pvcbench::ParallelSweep(3).thread_count(), 3u);
}

TEST(ParallelSweep, SharedPoolIsReusedAcrossRuns) {
  // Back-to-back multi-threaded run() calls must batch onto the same
  // persistent workers — the pool's thread count stays at its
  // high-water mark while the batch count keeps climbing.
  auto& pool = pvcbench::SharedPool::instance();
  (void)run_sweep(4);
  const std::size_t workers_after_first = pool.workers();
  const std::size_t batches_after_first = pool.batches_run();
  EXPECT_GE(workers_after_first, 4u);
  (void)run_sweep(4);
  (void)run_sweep(4);
  EXPECT_EQ(pool.workers(), workers_after_first);
  EXPECT_EQ(pool.batches_run(), batches_after_first + 2);
}

TEST(ParallelSweep, NestedSweepOnPoolThreadRunsInline) {
  // A sweep inside a pool-executed task must not wait on pool lanes the
  // pool itself would have to free — it detects the pool thread and
  // runs inline.
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  pvcbench::ParallelSweep outer(4);
  std::vector<int> inner_sums(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    outer.add([t, &inner_sums] {
      EXPECT_TRUE(pvcbench::SharedPool::on_pool_thread());
      pvcbench::ParallelSweep inner(4);
      int sum = 0;
      for (int i = 1; i <= 3; ++i) {
        inner.add([i, &sum] { sum += i; });
      }
      inner.run();
      inner_sums[t] = sum;
    });
  }
  outer.run();
  for (const int sum : inner_sums) {
    EXPECT_EQ(sum, 6);
  }
}

TEST(ParallelSweep, AddKeyedDeduplicatesIdenticalPoints) {
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  pvcbench::ParallelSweep sweep(2);
  int a_runs = 0;
  int b_runs = 0;
  const std::size_t a1 = sweep.add_keyed("point:a", [&] { ++a_runs; });
  const std::size_t b1 = sweep.add_keyed("point:b", [&] { ++b_runs; });
  const std::size_t a2 = sweep.add_keyed("point:a", [&] { ++a_runs; });
  const std::size_t a3 = sweep.add_keyed("point:a", [&] { ++a_runs; });
  EXPECT_EQ(a1, 0u);
  EXPECT_EQ(b1, 1u);
  EXPECT_EQ(a2, a1);  // duplicates resolve to the canonical slot
  EXPECT_EQ(a3, a1);
  EXPECT_EQ(sweep.deduped_tasks(), 2u);
  sweep.run();
  EXPECT_EQ(a_runs, 1);  // the duplicate tasks never executed
  EXPECT_EQ(b_runs, 1);
  if (pvc::obs::compiled_in()) {
    EXPECT_EQ(base.snapshot().value("sweep.deduped_tasks"), 2.0);
  }
}

TEST(ParallelSweep, AddKeyedMixesWithPlainAdd) {
  pvcbench::ParallelSweep sweep(1);
  int runs = 0;
  sweep.add([&] { ++runs; });
  const std::size_t keyed = sweep.add_keyed("k", [&] { ++runs; });
  EXPECT_EQ(keyed, 1u);
  EXPECT_EQ(sweep.add_keyed("k", [&] { ++runs; }), 1u);
  pvc::obs::Registry base;
  pvc::obs::ScopedRegistry scope(base);
  sweep.run();
  EXPECT_EQ(runs, 2);
}

}  // namespace
