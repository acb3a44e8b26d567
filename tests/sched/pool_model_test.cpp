// Model-checking the ThreadPool protocol (detail::JobBoard): a caller runs
// two jobs back to back — the second with a throwing iteration — while a
// worker joins, claims and leaves through the same board steps ThreadPool
// composes, polling where the pool would block. Every interleaving must run
// each iteration of the first job exactly once, deliver the second job's
// error to its caller, and never let a worker claim an index of a job other
// than the one it joined. The last invariant is the seed race: a worker that
// woke after run() retired its generation held a null job, and without the
// generation check in claim() it claimed the next run()'s indices and called
// through the null pointer.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/sched/sched.h"
#include "src/util/parallel.h"

namespace ullsnn {
namespace {

using detail::JobBoard;

constexpr int kPolls = 1;  // join/retire attempts before a body gives up

struct PoolModel {
  JobBoard board;
  std::array<std::array<int, 2>, 2> ran{};  // [job][index] run counts
  std::array<bool, 2> retired{};
  std::array<std::exception_ptr, 2> errors;
  JobBoard::Job jobs[2];
  const JobBoard::Job* current = nullptr;  // job the board hands out now
  bool abandoned = false;                  // the caller stopped polling
  bool ran_after_retire = false;
  std::string violation;

  PoolModel() {
    for (int j = 0; j < 2; ++j) {
      jobs[j] = [this, j](std::int64_t i) {
        if (retired[static_cast<std::size_t>(j)]) ran_after_retire = true;
        ++ran[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
        if (j == 1 && i == 0) throw std::runtime_error("iteration failed");
      };
    }
  }

  /// Claim-and-run loop of one participant; `job` is what it joined with.
  void work(std::uint64_t seen, const JobBoard::Job* job) {
    std::int64_t index = 0;
    while (true) {
      sched::yield_point("claim");
      if (!board.claim(seen, index)) return;
      if (job == nullptr || job != current) {
        violation = "claimed an index of a job it did not join";
        return;
      }
      try {
        (*job)(index);
      } catch (...) {
        board.fail(std::current_exception());
      }
    }
  }
};

sched::ModelRun make_pool_run() {
  auto m = std::make_shared<PoolModel>();
  sched::ModelRun run;

  run.bodies.push_back([m] {  // the run() caller, two jobs back to back
    for (std::size_t j = 0; j < 2; ++j) {
      sched::yield_point("post");  // run() returned; the next one starts
      const std::uint64_t generation = m->board.post(&m->jobs[j], 2);
      m->current = &m->jobs[j];
      m->work(generation, &m->jobs[j]);
      for (int attempt = 0;; ++attempt) {
        sched::yield_point("retire");
        if (m->board.try_retire(m->errors[j])) break;
        if (attempt == kPolls) {
          m->abandoned = true;
          return;
        }
      }
      m->current = nullptr;
      m->retired[j] = true;
    }
  });
  run.bodies.push_back([m] {  // one pool worker, two wake-ups
    std::uint64_t seen = 0;
    for (int round = 0; round < 2; ++round) {
      const JobBoard::Job* job = nullptr;
      bool joined = false;
      for (int attempt = 0; attempt <= kPolls && !joined; ++attempt) {
        sched::yield_point("join");
        joined = m->board.try_join(seen, job);
      }
      if (!joined) return;
      m->work(seen, job);
      m->board.leave();
    }
  });

  run.verify = [m] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("pool invariant: " + why);
    };
    if (!m->violation.empty()) fail("worker " + m->violation);
    if (m->ran_after_retire) fail("an iteration ran after its job was retired");
    std::exception_ptr left;
    if (!m->board.try_retire(left)) fail("a worker is still active at the end");
    if (m->abandoned) return;  // the caller gave up polling: nothing to check
    if (m->ran[0][0] != 1 || m->ran[0][1] != 1) {
      fail("first job did not run each index exactly once");
    }
    if (m->errors[0]) fail("first job reported an error");
    if (m->ran[1][0] != 1 || m->ran[1][1] > 1) {
      fail("second job ran an index more than once");
    }
    if (!m->errors[1]) fail("second job's error was not delivered to its caller");
  };
  return run;
}

TEST(PoolModelTest, BackToBackRunsNeverClaimAcrossGenerations) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 20000;
  const sched::ExploreStats stats = sched::explore(make_pool_run, opts);
  // About 10k interleavings: the whole tree fits the budget, so every one
  // was checked.
  EXPECT_TRUE(stats.exhausted) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

/// The schedule the explorer reports against a claim() without the
/// generation check: the caller finishes the first job, the worker joins
/// the retired generation (null job), the caller posts the second job, and
/// the worker claims from it. With the check the worker claims nothing.
TEST(PoolModelTest, LateWorkerSkipsTheNextGeneration) {
  const sched::RunResult result =
      sched::replay(make_pool_run(), "0.0.0.0.0.0.1.1.0.1.0.0.0.0.0");
  EXPECT_TRUE(result.completed) << result.error;
}

}  // namespace
}  // namespace ullsnn
