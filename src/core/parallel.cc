#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/check.h"

namespace whitenrec {
namespace core {

namespace {

// Set for the lifetime of every pool worker thread; ParallelFor consults it
// to run nested parallel sections inline instead of re-entering the pool.
thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    WR_CHECK_MSG(!stop_, "ThreadPool::Submit after shutdown");
    queue_.push_back(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

// --- Global pool ------------------------------------------------------------

namespace {

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct GlobalPool {
  std::mutex mu;
  std::size_t num_threads = 0;            // 0 = not yet initialized
  std::unique_ptr<ThreadPool> pool;       // num_threads - 1 workers

  // Ensures the pool matches the configured thread count; returns it (may be
  // nullptr when running serially).
  ThreadPool* Ensure() {
    std::lock_guard<std::mutex> lock(mu);
    if (num_threads == 0) num_threads = HardwareThreads();
    const std::size_t want = num_threads - 1;
    if (pool == nullptr ? want > 0 : pool->num_workers() != want) {
      pool.reset();
      if (want > 0) pool = std::make_unique<ThreadPool>(want);
    }
    return pool.get();
  }
};

GlobalPool& Global() {
  // Function-local static: destroyed at exit, joining the workers so TSan
  // sees a clean shutdown.
  static GlobalPool g;
  return g;
}

// Shared state of one ParallelFor launch. Workers race for chunk indices via
// an atomic counter; each chunk's exception slot is owned by that chunk.
struct ForLaunch {
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t end = 0;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t helpers_done = 0;

  void DrainChunks() {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_chunks) return;
      const std::size_t c0 = begin + k * grain;
      const std::size_t c1 = std::min(end, c0 + grain);
      try {
        (*fn)(c0, c1);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    }
  }

  // Takes the lowest-indexed chunk failure, so the surfaced error does not
  // depend on scheduling, and releases every other one. Called on the
  // calling thread once all helpers are done: a helper's task closure can
  // hold the last reference to this launch, and clearing `errors` here
  // means no exception object is ever destroyed on a worker.
  std::exception_ptr TakeFirstError() {
    std::exception_ptr first;
    for (std::exception_ptr& e : errors) {
      if (e) {
        first = std::move(e);
        break;
      }
    }
    errors.clear();
    return first;
  }
};

}  // namespace

std::size_t NumThreads() {
  GlobalPool& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.num_threads == 0) g.num_threads = HardwareThreads();
  return g.num_threads;
}

void SetNumThreads(std::size_t n) {
  WR_CHECK_MSG(!ThreadPool::InWorkerThread(),
               "SetNumThreads inside a parallel section");
  GlobalPool& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.num_threads = n == 0 ? HardwareThreads() : n;
  g.pool.reset();  // rebuilt lazily by the next parallel call
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t num_chunks = (n + grain - 1) / grain;

  // Serial fast paths: one chunk, configured serial, or already inside a
  // worker (nested section). Chunk boundaries are irrelevant for ParallelFor
  // correctness, so the whole range runs as one call.
  if (num_chunks <= 1 || ThreadPool::InWorkerThread() || NumThreads() <= 1) {
    fn(begin, end);
    return;
  }
  ThreadPool* pool = Global().Ensure();
  if (pool == nullptr) {
    fn(begin, end);
    return;
  }

  auto launch = std::make_shared<ForLaunch>();
  launch->begin = begin;
  launch->grain = grain;
  launch->end = end;
  launch->num_chunks = num_chunks;
  launch->fn = &fn;
  launch->errors.assign(num_chunks, nullptr);

  // The calling thread participates, so only num_threads - 1 helpers are
  // needed (and never more than there are chunks to hand out).
  const std::size_t helpers =
      std::min(pool->num_workers(), num_chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->Submit([launch] {
      launch->DrainChunks();
      std::lock_guard<std::mutex> lock(launch->mu);
      ++launch->helpers_done;
      launch->cv.notify_all();
    });
  }
  launch->DrainChunks();
  {
    std::unique_lock<std::mutex> lock(launch->mu);
    launch->cv.wait(lock,
                    [&] { return launch->helpers_done == helpers; });
  }
  if (std::exception_ptr error = launch->TakeFirstError()) {
    std::rethrow_exception(error);
  }
}

double ParallelReduceSum(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<double(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return 0.0;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  // One partial per chunk regardless of thread count; the chunk structure —
  // not the schedule — defines the summation tree.
  std::vector<double> partials(num_chunks, 0.0);
  ParallelFor(begin, end, grain, [&](std::size_t c0, std::size_t c1) {
    // Recover the chunk index from the (static) chunk boundaries. A nested /
    // serial invocation may receive the whole range as one call; split it
    // back into the same chunks so the summation order never changes.
    for (std::size_t k = (c0 - begin) / grain;
         k * grain + begin < c1; ++k) {
      const std::size_t b = begin + k * grain;
      const std::size_t e = std::min(c1, b + grain);
      partials[k] = fn(b, e);
    }
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace core
}  // namespace whitenrec
