#pragma once
// Deterministic parallel task runner for the bench binaries.
//
// A sweep (per-system tables, per-path message-size curves, per-scenario
// chaos pairs) is a set of independent simulations.  Each simulation is
// single-threaded, so the sweep parallelises across worker threads: add()
// tasks that compute into pre-sized result slots, run() executes them,
// and the caller renders the slots in index order afterwards.
//
// Determinism contract (asserted by tests/test_parallel_sweep.cpp and the
// binary-level byte-compare in tests/determinism_check.cmake): output and
// metrics with threads=N are byte-identical to threads=1.
//  * tasks write only their own result slot — rendering stays serial and
//    in index order, so stdout/CSV never depend on scheduling;
//  * each task runs under an obs::ScopedRegistry over its own private
//    registry, and run() merges the task registries into the caller's
//    active registry in task-index order — the same fixed fold whether
//    one worker or eight executed the tasks, so even double-valued gauge
//    sums are bit-identical;
//  * simulations seed their own RNGs (pvc::Rng) from explicit seeds, so
//    concurrency cannot perturb any simulated quantity.
//
// The thread count comes from the `threads=<n>` bench option
// (threads_from_config): n=0 picks std::thread::hardware_concurrency(),
// n=1 runs everything inline on the calling thread (today's serial
// behaviour), n>1 uses n workers.
//
// Multi-threaded runs batch onto SharedPool, one process-wide set of
// persistent worker threads reused across every run() call, so a
// process that runs many sweeps (perfbench/, the in-process tests) pays
// the thread spawn once.  Each lane runs the same claim-next-task loop
// the inline path runs, and the registry merge happens on the calling
// thread, so the pool never touches the determinism contract.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pvc {
class Config;
}  // namespace pvc

namespace pvcbench {

/// Process-wide persistent worker pool: grow-only thread set, one batch
/// of identical worker functions at a time per run() call (concurrent
/// batches from different threads interleave item-by-item).  Private to
/// ParallelSweep in spirit; exposed for the pool-reuse tests.
class SharedPool {
 public:
  /// The process-wide instance (created on first use, joined at exit).
  [[nodiscard]] static SharedPool& instance();

  /// True on a pool worker thread — ParallelSweep uses this to run
  /// nested sweeps inline instead of deadlocking the pool on itself.
  [[nodiscard]] static bool on_pool_thread() noexcept;

  /// Runs `fn` on `lanes` pool workers concurrently (growing the pool
  /// if needed) and blocks until every lane returned.  `fn` must not
  /// throw — ParallelSweep catches per task into failure slots.
  void run(std::size_t lanes, const std::function<void()>& fn);

  /// Threads the pool has ever grown to (monotonic).
  [[nodiscard]] std::size_t workers() const;

  /// Batches dispatched so far (tests assert reuse across run() calls).
  [[nodiscard]] std::size_t batches_run() const;

  ~SharedPool();
  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

 private:
  SharedPool();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs a batch of independent tasks across worker threads with
/// deterministic (task-index order) metric merging.  Single-use: run()
/// executes the batch once, and a second run() throws a pvc::Error
/// (ErrorCode::InvalidArgument) instead of executing every task again.
/// A bench with several sections makes one sweep per section.
class ParallelSweep {
 public:
  /// `threads` = 0 selects std::thread::hardware_concurrency() (at least
  /// 1); 1 executes inline on the calling thread.
  explicit ParallelSweep(std::size_t threads = 0);

  /// Thread count requested by the bench `threads=<n>` option; 0 (the
  /// default) defers to hardware_concurrency.  A negative value throws
  /// ErrorCode::InvalidArgument naming `threads=`.
  [[nodiscard]] static std::size_t threads_from_config(
      const pvc::Config& config);

  /// Workers actually used by run() (>= 1).
  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Enqueues a task.  Tasks must be independent, must not touch stdout,
  /// and should write their results into caller-owned slots captured by
  /// reference.  Metrics bumped inside the task land in a private
  /// registry that run() merges deterministically.
  void add(std::function<void()> task);

  /// Deduplicating add: tasks carrying the same `key` are the same
  /// computation (e.g. the healthy baseline shared by every chaos
  /// scenario pair), so only the first is enqueued and executed; later
  /// calls discard `task` and return the first call's slot index, which
  /// the caller uses to render the duplicate from the canonical result
  /// slot.  run() reports the discards as the `sweep.deduped_tasks`
  /// counter.  Determinism is unaffected: the surviving task set and
  /// its index order depend only on the add sequence, never on
  /// scheduling.
  std::size_t add_keyed(const std::string& key, std::function<void()> task);

  /// Tasks discarded by add_keyed so far.
  [[nodiscard]] std::size_t deduped_tasks() const noexcept {
    return deduped_;
  }

  /// Executes every task, merges the per-task metric registries into the
  /// caller's active registry in task order, and rethrows the first
  /// failure (by task index) if any task threw.
  void run();

 private:
  std::size_t threads_;
  bool ran_ = false;
  std::vector<std::function<void()>> tasks_;
  std::unordered_map<std::string, std::size_t> keyed_;
  std::size_t deduped_ = 0;
};

}  // namespace pvcbench
