// Minimal thread pool and parallel_for for data-parallel batch work.
//
// The reference benches run single-core (DESIGN.md), so everything defaults
// to serial execution; callers opt in via set_num_threads(n). Parallelism is
// exposed at the batch-sample level (conv2d_forward's per-sample im2col+GEMM
// loop), which is embarrassingly parallel and keeps all kernels bitwise
// deterministic regardless of thread count.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"

namespace ullsnn {

namespace detail {

/// ThreadPool's shared job state and the steps of its protocol. Every step
/// except the two waits is one non-blocking critical section; ThreadPool
/// composes them with its threads and waits, and the sched model
/// (tests/sched/pool_model_test.cpp) drives the same steps under every
/// interleaving, polling where the pool would wait.
class JobBoard {
 public:
  using Job = std::function<void(std::int64_t)>;

  /// Caller: publish `job` over indices [0, count) as a new generation and
  /// wake the workers. Returns the generation, which the caller claims under.
  std::uint64_t post(const Job* job, std::int64_t count);
  /// Worker: if a generation newer than `seen` was posted, join it: count the
  /// worker active, advance `seen`, and return true with the job in `job`
  /// (null when the caller already retired it).
  bool try_join(std::uint64_t& seen, const Job*& job);
  /// try_join that blocks until there is a generation to join; false once
  /// the board is shut down.
  bool join(std::uint64_t& seen, const Job*& job);
  /// Hand out the next index of generation `seen`. False once the job is
  /// exhausted or failed, or a newer generation has replaced it: a worker
  /// that joined a generation after its caller retired it holds no job and
  /// must not claim the next generation's indices.
  bool claim(std::uint64_t seen, std::int64_t& index);
  /// Keep the first error of the generation and stop handing out indices.
  void fail(std::exception_ptr error);
  /// Worker: leave the generation it joined.
  void leave();
  /// Caller: once no worker is active, retire the job (no later join sees
  /// it) and return true with its first error, if any, in `error`. False
  /// while workers are still active.
  bool try_retire(std::exception_ptr& error);
  /// Block until no worker is active.
  void wait_idle();
  /// Make every current and future join() return false.
  void shut_down();

 private:
  bool join_locked(std::uint64_t& seen, const Job*& job) REQUIRES(mutex_);

  Mutex mutex_;
  CondVar wake_;
  CondVar done_;
  const Job* job_ GUARDED_BY(mutex_) = nullptr;
  std::int64_t job_count_ GUARDED_BY(mutex_) = 0;
  std::int64_t next_index_ GUARDED_BY(mutex_) = 0;
  std::int64_t active_ GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::exception_ptr job_error_ GUARDED_BY(mutex_);
};

}  // namespace detail

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 or 1 => no workers; run() executes inline).
  explicit ThreadPool(std::int64_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::int64_t thread_count() const {
    return static_cast<std::int64_t>(workers_.size());
  }

  /// Run fn(i) for i in [0, count), blocking until all iterations finish.
  /// Iterations are distributed dynamically (shared counter), so uneven
  /// per-iteration cost balances automatically.
  ///
  /// Exceptions: if any iteration throws, the FIRST exception is captured,
  /// no further indices are handed out (in-flight iterations still finish),
  /// and the exception is rethrown on the calling thread once every worker
  /// has drained. The pool stays usable afterwards. Iterations past the
  /// throwing index may or may not have run.
  void run(std::int64_t count, const std::function<void(std::int64_t)>& fn);

 private:
  void worker_loop();

  detail::JobBoard board_;
  std::vector<std::thread> workers_;
};

/// Process-wide worker count for library kernels (default 1 = serial).
void set_num_threads(std::int64_t threads);
std::int64_t num_threads();

/// Run fn(i) for i in [0, count) on the process-wide pool (inline when the
/// pool is serial or count == 1).
void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn);

}  // namespace ullsnn
