#include "src/util/parallel.h"

#include <memory>
#include <stdexcept>
#include <utility>

namespace ullsnn {

namespace detail {

std::uint64_t JobBoard::post(const Job* job, std::int64_t count) {
  std::uint64_t generation = 0;
  {
    MutexLock lock(mutex_);
    job_ = job;
    job_count_ = count;
    next_index_ = 0;
    job_error_ = nullptr;
    generation = ++generation_;
  }
  wake_.notify_all();
  return generation;
}

bool JobBoard::join_locked(std::uint64_t& seen, const Job*& job) {
  if (generation_ == seen) return false;
  seen = generation_;
  job = job_;
  ++active_;
  return true;
}

bool JobBoard::try_join(std::uint64_t& seen, const Job*& job) {
  MutexLock lock(mutex_);
  return join_locked(seen, job);
}

bool JobBoard::join(std::uint64_t& seen, const Job*& job) {
  MutexLock lock(mutex_);
  while (!shutdown_ && generation_ == seen) wake_.wait(mutex_);
  return !shutdown_ && join_locked(seen, job);
}

bool JobBoard::claim(std::uint64_t seen, std::int64_t& index) {
  MutexLock lock(mutex_);
  if (generation_ != seen || next_index_ >= job_count_) return false;
  index = next_index_++;
  return true;
}

void JobBoard::fail(std::exception_ptr error) {
  MutexLock lock(mutex_);
  if (!job_error_) job_error_ = std::move(error);
  next_index_ = job_count_;  // stop handing out further iterations
}

void JobBoard::leave() {
  bool idle = false;
  {
    MutexLock lock(mutex_);
    idle = --active_ == 0;
  }
  if (idle) done_.notify_all();
}

bool JobBoard::try_retire(std::exception_ptr& error) {
  MutexLock lock(mutex_);
  if (active_ != 0) return false;
  job_ = nullptr;
  error = std::exchange(job_error_, nullptr);
  return true;
}

void JobBoard::wait_idle() {
  MutexLock lock(mutex_);
  while (active_ != 0) done_.wait(mutex_);
}

void JobBoard::shut_down() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
}

}  // namespace detail

namespace {

/// Run `job` on every index board.claim() hands out for generation `seen`,
/// routing exceptions to board.fail(). `job` is only dereferenced after a
/// successful claim, so a worker that joined a retired generation (null
/// job) passes straight through.
void drain(detail::JobBoard& board, std::uint64_t seen,
           const detail::JobBoard::Job* job) {
  std::int64_t index = 0;
  while (board.claim(seen, index)) {
    try {
      (*job)(index);
    } catch (...) {
      board.fail(std::current_exception());
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(std::int64_t threads) {
  if (threads < 0) throw std::invalid_argument("ThreadPool: negative thread count");
  if (threads <= 1) return;  // inline execution, no workers
  workers_.reserve(static_cast<std::size_t>(threads));
  for (std::int64_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  board_.shut_down();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  const detail::JobBoard::Job* job = nullptr;
  while (board_.join(seen, job)) {
    drain(board_, seen, job);
    board_.leave();
  }
}

void ThreadPool::run(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  if (count <= 0) return;
  if (workers_.empty() || count == 1) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // The calling thread also works, then waits for the stragglers.
  drain(board_, board_.post(&fn, count), &fn);
  std::exception_ptr error;
  while (!board_.try_retire(error)) board_.wait_idle();
  // Rethrow outside the lock so the pool stays usable from a catch block.
  if (error) std::rethrow_exception(error);
}

namespace {
std::unique_ptr<ThreadPool>& global_pool() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::int64_t& global_threads() {
  static std::int64_t threads = 1;
  return threads;
}
}  // namespace

void set_num_threads(std::int64_t threads) {
  if (threads <= 0) throw std::invalid_argument("set_num_threads: must be positive");
  global_threads() = threads;
  global_pool() = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

std::int64_t num_threads() { return global_threads(); }

void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  ThreadPool* pool = global_pool().get();
  if (pool == nullptr) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->run(count, fn);
}

}  // namespace ullsnn
