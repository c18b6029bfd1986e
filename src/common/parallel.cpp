#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace sgs {

namespace {

// Marks threads currently inside a pool job so nested parallel loops
// degrade to serial execution instead of deadlocking on the single pool.
thread_local bool t_inside_pool_job = false;
// Worker index of the pool job this thread is currently running. A nested
// loop reports this index, not 0: the enclosing worker owns its per-worker
// arena exclusively, so the exclusivity contract survives nesting.
thread_local int t_pool_worker_index = 0;

// RAII for the two thread-locals above, so an exception from fn cannot
// leave the thread marked as inside a job (which would silently serialize
// every later loop). Applied on every path that runs fn — including the
// serial one, or a nested call there would retake the non-recursive
// submit_mutex_ and self-deadlock.
struct PoolJobScope {
  explicit PoolJobScope(int worker) {
    t_inside_pool_job = true;
    t_pool_worker_index = worker;
  }
  ~PoolJobScope() {
    t_inside_pool_job = false;
    t_pool_worker_index = 0;
  }
};

// FIFO-fair mutex: waiters are granted the lock strictly in arrival order
// (ticket lock on a condition variable). std::mutex makes no fairness
// promise — under contention one thread can barge repeatedly, which for
// the pool's submit lock would mean one viewer session rendering frame
// after frame while the others starve. With tickets, N session threads
// submitting render jobs are served round-robin in arrival order.
class FairMutex {
 public:
  void lock() {
    std::unique_lock<std::mutex> lk(m_);
    const std::uint64_t ticket = next_++;
    cv_.wait(lk, [this, ticket] { return ticket == serving_; });
  }
  void unlock() {
    {
      std::lock_guard<std::mutex> lk(m_);
      ++serving_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
  std::uint64_t serving_ = 0;
};

// Persistent worker pool. Helper threads are parked on a condition variable
// between jobs; the submitting thread participates as worker 0, so a pool of
// parallelism N spawns N-1 threads. One job runs at a time; submissions from
// other user threads serialize behind submit_mutex_, which is FIFO-fair so
// concurrent sessions share the pool round-robin instead of starving.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() { stop_helpers(); }

  int parallelism() {
    std::lock_guard<std::mutex> lk(config_mutex_);
    if (target_parallelism_ <= 0) {
      const unsigned hc = std::thread::hardware_concurrency();
      target_parallelism_ = hc > 0 ? static_cast<int>(hc) : 1;
    }
    return target_parallelism_;
  }

  void set_parallelism(int n) {
    std::lock_guard<FairMutex> submit(submit_mutex_);  // no job in flight
    stop_helpers();
    std::lock_guard<std::mutex> lk(config_mutex_);
    target_parallelism_ = std::max(1, n);
  }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(int, std::size_t)>& fn) {
    if (begin >= end) return;
    if (t_inside_pool_job) {
      // Nested call (or an InlineLoopScope): serial, under the worker
      // index this thread already owns, so per-worker arenas stay
      // exclusive through nesting.
      const int worker = t_pool_worker_index;
      for (std::size_t i = begin; i < end; ++i) fn(worker, i);
      return;
    }
    const std::size_t count = end - begin;
    const int width = std::min<std::size_t>(
        static_cast<std::size_t>(parallelism()), count);
    if (width <= 1) {
      // Serial path, but still behind submit_mutex_: a concurrent submitter
      // from another thread is running as worker 0 right now, and this
      // call's fn(0, i) must not overlap it (the per-worker exclusivity
      // contract).
      SubmitWaitScope wait(*this);
      std::lock_guard<FairMutex> submit(submit_mutex_);
      wait.granted();
      PoolJobScope scope(0);
      for (std::size_t i = begin; i < end; ++i) fn(0, i);
      jobs_completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    SubmitWaitScope wait(*this);
    std::lock_guard<FairMutex> submit(submit_mutex_);
    wait.granted();
    // The helper count follows parallelism(), not this job's width: a small
    // job must not tear the pool down for the next big one. Surplus helpers
    // wake, find the counter exhausted, and go back to sleep.
    ensure_helpers(parallelism() - 1);

    // Contiguous chunks amortize the shared counter; ~4 chunks per worker
    // keeps dynamic load balancing for skewed per-iteration costs.
    const std::size_t chunk = std::max<std::size_t>(
        1, count / (static_cast<std::size_t>(width) * 4));
    {
      std::lock_guard<std::mutex> lk(job_mutex_);
      job_fn_ = &fn;
      job_next_.store(begin, std::memory_order_relaxed);
      job_end_ = end;
      job_chunk_ = chunk;
      active_helpers_ = static_cast<int>(helpers_.size());
      ++job_epoch_;
    }
    cv_work_.notify_all();

    // If fn throws on the submitting thread we must NOT unwind past the
    // helpers: they are still calling *job_fn_ against the caller's stack.
    // Stop handing out work, wait for them to go idle, then rethrow. (A
    // throw on a helper thread escapes helper_loop and std::terminates —
    // the same behavior the old spawn-per-call implementation had.)
    std::exception_ptr error;
    try {
      drain(0);
    } catch (...) {
      error = std::current_exception();
      job_next_.store(end, std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::mutex> lk(job_mutex_);
      cv_done_.wait(lk, [this] { return active_helpers_ == 0; });
      job_fn_ = nullptr;
    }
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    if (error) std::rethrow_exception(error);
  }

  std::uint64_t jobs_completed() const {
    return jobs_completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t submit_wait_ns() const {
    return submit_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  // Measures the FIFO-ticket wait of one submission: constructed before
  // the submit lock is taken, stopped the moment it is granted. The wait
  // (not the job's run time) is the cross-session fairness cost at the
  // pool seam.
  struct SubmitWaitScope {
    explicit SubmitWaitScope(ThreadPool& pool)
        : pool(pool), start(std::chrono::steady_clock::now()) {}
    void granted() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      pool.submit_wait_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                                     std::memory_order_relaxed);
    }
    ThreadPool& pool;
    std::chrono::steady_clock::time_point start;
  };

  void ensure_helpers(int n) {
    if (static_cast<int>(helpers_.size()) == n) return;
    stop_helpers();
    shutdown_ = false;
    // New helpers must start at the *current* epoch: job_epoch_ persists
    // across pool rebuilds, and a helper born with epoch 0 would see a
    // stale mismatch and drain a job that was never published to it.
    std::uint64_t birth_epoch;
    {
      std::lock_guard<std::mutex> lk(job_mutex_);
      birth_epoch = job_epoch_;
    }
    helpers_.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
      helpers_.emplace_back(
          [this, t, birth_epoch] { helper_loop(t + 1, birth_epoch); });
    }
  }

  void stop_helpers() {
    {
      std::lock_guard<std::mutex> lk(job_mutex_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (auto& th : helpers_) th.join();
    helpers_.clear();
    shutdown_ = false;
  }

  void helper_loop(int worker_index, std::uint64_t seen_epoch) {
    obs::set_thread_name("pool-worker-" + std::to_string(worker_index));
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(job_mutex_);
        cv_work_.wait(lk, [this, seen_epoch] {
          return shutdown_ || job_epoch_ != seen_epoch;
        });
        if (shutdown_) return;
        seen_epoch = job_epoch_;
      }
      drain(worker_index);
      {
        std::lock_guard<std::mutex> lk(job_mutex_);
        if (--active_helpers_ == 0) cv_done_.notify_all();
      }
    }
  }

  void drain(int worker_index) {
    PoolJobScope scope(worker_index);
    const std::function<void(int, std::size_t)>& fn = *job_fn_;
    const std::size_t end = job_end_;
    const std::size_t chunk = job_chunk_;
    for (;;) {
      const std::size_t i0 = job_next_.fetch_add(chunk, std::memory_order_relaxed);
      if (i0 >= end) break;
      const std::size_t i1 = std::min(end, i0 + chunk);
      for (std::size_t i = i0; i < i1; ++i) fn(worker_index, i);
    }
  }

  std::mutex config_mutex_;
  int target_parallelism_ = 0;  // 0 = uninitialized, resolve lazily

  FairMutex submit_mutex_;  // serializes whole jobs, FIFO across sessions
  std::vector<std::thread> helpers_;

  std::mutex job_mutex_;
  std::condition_variable cv_work_, cv_done_;
  const std::function<void(int, std::size_t)>* job_fn_ = nullptr;
  std::atomic<std::size_t> job_next_{0};
  std::size_t job_end_ = 0;
  std::size_t job_chunk_ = 1;
  std::uint64_t job_epoch_ = 0;
  int active_helpers_ = 0;
  bool shutdown_ = false;

  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> submit_wait_ns_{0};
};

// Background FIFO lane (see parallel.hpp). One dedicated thread, separate
// from the parallel_for helpers: a long-running fetch must never occupy a
// render worker, and a render job must never delay a fetch.
class AsyncLane {
 public:
  static AsyncLane& instance() {
    static AsyncLane lane;
    return lane;
  }

  ~AsyncLane() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  void submit(std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!worker_.joinable()) {
      worker_ = std::thread([this] { loop(); });
    }
    queue_.push_back(std::move(fn));
    ++pending_;
    cv_work_.notify_one();
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_idle_.wait(lk, [this] { return pending_ == 0; });
  }

  std::uint64_t completed() {
    std::lock_guard<std::mutex> lk(mutex_);
    return completed_;
  }

  std::uint64_t error_count() {
    std::lock_guard<std::mutex> lk(mutex_);
    return errors_total_;
  }

  std::vector<std::string> take_errors() {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<std::string> out;
    out.swap(errors_);
    return out;
  }

 private:
  // Keep at most this many messages between drains: an error storm (every
  // prefetch of a dead disk failing) must not grow memory without bound.
  static constexpr std::size_t kMaxBufferedErrors = 64;

  void loop() {
    obs::set_thread_name("async-lane");
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_work_.wait(lk, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) return;  // shutdown with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      // A throwing task is a recoverable event, not a process death: the
      // exception is captured into the error channel and the lane moves on
      // to the next task (idle waiters still get their notify).
      SGS_TRACE_SPAN("async", "async_task");
      std::string error;
      bool failed = false;
      try {
        task();
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      } catch (...) {
        failed = true;
        error = "non-std exception in async task";
      }
      {
        std::lock_guard<std::mutex> lk(mutex_);
        ++completed_;
        if (failed) {
          ++errors_total_;
          if (errors_.size() < kMaxBufferedErrors) {
            errors_.push_back(std::move(error));
          }
        }
        if (--pending_ == 0) cv_idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_work_, cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::thread worker_;
  std::size_t pending_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_total_ = 0;
  std::vector<std::string> errors_;
  bool shutdown_ = false;
};

}  // namespace

// Reuses the nested-loop path: the thread looks like it is inside a pool
// job, so ThreadPool::run takes the inline branch before any lock.
InlineLoopScope::InlineLoopScope()
    : prev_inside_(t_inside_pool_job), prev_worker_(t_pool_worker_index) {
  if (!t_inside_pool_job) t_pool_worker_index = 0;
  t_inside_pool_job = true;
}

InlineLoopScope::~InlineLoopScope() {
  t_inside_pool_job = prev_inside_;
  t_pool_worker_index = prev_worker_;
}

int parallelism() { return ThreadPool::instance().parallelism(); }

void set_parallelism(int n) { ThreadPool::instance().set_parallelism(n); }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::instance().run(begin, end,
                             [&fn](int, std::size_t i) { fn(i); });
}

void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(int worker, std::size_t i)>& fn) {
  ThreadPool::instance().run(begin, end, fn);
}

std::uint64_t pool_jobs_completed() {
  return ThreadPool::instance().jobs_completed();
}

std::uint64_t pool_submit_wait_ns() {
  return ThreadPool::instance().submit_wait_ns();
}

void async_submit(std::function<void()> fn) {
  AsyncLane::instance().submit(std::move(fn));
}

void async_wait_idle() { AsyncLane::instance().wait_idle(); }

std::uint64_t async_tasks_completed() { return AsyncLane::instance().completed(); }

std::uint64_t async_task_errors() { return AsyncLane::instance().error_count(); }

std::vector<std::string> async_take_errors() {
  return AsyncLane::instance().take_errors();
}

}  // namespace sgs
