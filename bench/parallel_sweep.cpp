#include "parallel_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "core/config.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace pvcbench {

namespace {

/// Set for the lifetime of each pool worker thread; read by
/// SharedPool::on_pool_thread() so a sweep running *on* the pool (a
/// nested ParallelSweep inside a task) falls back to inline execution
/// instead of waiting on lanes the pool can never schedule.
thread_local bool tls_on_pool_thread = false;

}  // namespace

// ---------------------------------------------------------------------------
// SharedPool

struct SharedPool::Impl {
  /// One run() call in flight: `lanes` copies of `fn` to execute,
  /// caller blocks until `finished == lanes`.
  struct Batch {
    const std::function<void()>* fn = nullptr;
    std::size_t remaining_starts = 0;  ///< lane starts not yet claimed
    std::size_t finished = 0;          ///< lanes that returned
    std::size_t lanes = 0;
    std::condition_variable done_cv;
  };

  std::mutex mutex;
  std::condition_variable work_cv;
  std::deque<Batch*> queue;  ///< batches with unclaimed lane starts
  std::vector<std::thread> threads;
  std::size_t batches = 0;
  bool stop = false;

  void worker_loop() {
    tls_on_pool_thread = true;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      work_cv.wait(lock, [this] { return stop || !queue.empty(); });
      if (stop) {
        return;
      }
      Batch* batch = queue.front();
      batch->remaining_starts--;
      if (batch->remaining_starts == 0) {
        queue.pop_front();
      }
      lock.unlock();
      (*batch->fn)();  // the sweep's claim-next-task loop; must not throw
      lock.lock();
      batch->finished++;
      if (batch->finished == batch->lanes) {
        batch->done_cv.notify_all();
      }
    }
  }
};

SharedPool::SharedPool() : impl_(std::make_unique<Impl>()) {}

SharedPool::~SharedPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
}

SharedPool& SharedPool::instance() {
  static SharedPool pool;
  return pool;
}

bool SharedPool::on_pool_thread() noexcept { return tls_on_pool_thread; }

std::size_t SharedPool::workers() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->threads.size();
}

std::size_t SharedPool::batches_run() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->batches;
}

void SharedPool::run(std::size_t lanes, const std::function<void()>& fn) {
  pvc::ensure(lanes >= 1, "SharedPool: need at least one lane");
  pvc::ensure(!on_pool_thread(),
              "SharedPool: nested run() on a pool thread (callers must use "
              "on_pool_thread() to fall back inline)");
  Impl::Batch batch;
  batch.fn = &fn;
  batch.remaining_starts = lanes;
  batch.finished = 0;
  batch.lanes = lanes;
  std::unique_lock<std::mutex> lock(impl_->mutex);
  // Grow-only: the pool keeps the high-water-mark thread count alive so
  // repeated run() calls pay no spawn/join (the point of batching).
  while (impl_->threads.size() < lanes) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->queue.push_back(&batch);
  impl_->batches++;
  impl_->work_cv.notify_all();
  batch.done_cv.wait(lock, [&batch] { return batch.finished == batch.lanes; });
}

// ---------------------------------------------------------------------------
// ParallelSweep

ParallelSweep::ParallelSweep(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) {
      threads_ = 1;
    }
  }
}

std::size_t ParallelSweep::threads_from_config(const pvc::Config& config) {
  const long n = config.get_int("threads", 0);
  pvc::ensure(n >= 0, pvc::ErrorCode::InvalidArgument,
              "threads= must be >= 0 (0 = hardware concurrency)");
  return static_cast<std::size_t>(n);
}

void ParallelSweep::add(std::function<void()> task) {
  pvc::ensure(static_cast<bool>(task), "ParallelSweep: empty task");
  tasks_.push_back(std::move(task));
}

std::size_t ParallelSweep::add_keyed(const std::string& key,
                                     std::function<void()> task) {
  pvc::ensure(static_cast<bool>(task), "ParallelSweep: empty task");
  const auto it = keyed_.find(key);
  if (it != keyed_.end()) {
    ++deduped_;  // identical computation already scheduled; drop this one
    return it->second;
  }
  const std::size_t index = tasks_.size();
  tasks_.push_back(std::move(task));
  keyed_.emplace(key, index);
  return index;
}

void ParallelSweep::run() {
  pvc::ensure(!ran_, pvc::ErrorCode::InvalidArgument,
              "ParallelSweep: run() called twice; a sweep is single-use, so "
              "make one per batch");
  ran_ = true;
  const std::size_t n = tasks_.size();
  if (n == 0 && deduped_ == 0) {
    return;
  }

  // One private registry and failure slot per task; Registry is
  // move-averse, so the pool holds pointers.
  std::vector<std::unique_ptr<pvc::obs::Registry>> registries;
  registries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    registries.push_back(std::make_unique<pvc::obs::Registry>());
  }
  std::vector<std::exception_ptr> failures(n);

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      // Route every metric bump inside the task to its private registry
      // (instrumented layers re-resolve their handles per registry).
      pvc::obs::ScopedRegistry scope(*registries[i]);
      try {
        tasks_[i]();
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  };

  const std::size_t workers = n == 0 ? 1 : std::min(threads_, n);
  if (workers <= 1 || SharedPool::on_pool_thread()) {
    // Inline — identical code path, zero thread machinery.  The
    // on_pool_thread() arm keeps a nested sweep from blocking the pool
    // on lanes the pool itself would have to run.
    worker();
  } else {
    // Batch onto the persistent process-wide pool: no thread spawn or
    // join on this call.  Each lane runs the very same claim-next-task
    // worker the inline arm runs.
    SharedPool::instance().run(workers, worker);
  }

  // Task-index-order merge: the fold over double-valued gauges happens
  // in the same order regardless of which worker ran which task, so
  // threads=N metrics are byte-identical to threads=1.
  auto& target = pvc::obs::Registry::active();
  for (std::size_t i = 0; i < n; ++i) {
    target.merge_from(*registries[i]);
  }
  if (deduped_ > 0) {
    // Reported into the caller's registry like any sweep result: the
    // count is a pure function of the add sequence, so it never breaks
    // the byte-identity contract.
    target
        .counter("sweep.deduped_tasks", "tasks",
                 "identical sweep points discarded by ParallelSweep dedup")
        .add(deduped_);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (failures[i]) {
      std::rethrow_exception(failures[i]);
    }
  }
}

}  // namespace pvcbench
