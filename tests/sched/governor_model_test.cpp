// Model-checking the TGovernor shared by every serving worker: two workers
// each run admit() then record_health() for three batches, with a decision
// point before every call, while a third thread feeds observe_load(). Every
// interleaving must keep at most one half-open probe in flight, admit each
// batch at ladder[max(health rung, load level)] as they stood at admit time,
// and leave a trips/recoveries ledger that matches history().
//
// hook_test_points stays OFF: every governor call holds its mutex across the
// gauge updates, which reach ULLSNN_TEST_POINT sites (see the model rules in
// src/sched/sched.h). Explicit yield_point()s between calls are the decision
// points instead; each call is atomic under the governor's lock.
#include "src/serve/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/obs/log.h"
#include "src/sched/sched.h"

namespace ullsnn::serve {
namespace {

GovernorConfig model_config() {
  GovernorConfig c;
  c.ladder = {3, 2, 1};
  c.failure_threshold = 1;
  c.recovery_threshold = 1;
  c.open_cooldown = 1;
  c.dwell = 1;
  return c;
}

/// What the explorer saw across all runs: each must be reached by some
/// interleaving, or the model is not exercising the paths it claims to.
struct Coverage {
  std::int64_t probes = 0;
  std::int64_t refused_during_probe = 0;
  std::int64_t trips = 0;
  std::int64_t recoveries = 0;
  std::int64_t load_capped = 0;  // admitted below the health rung's T
};

struct GovernorModel {
  TGovernor governor{model_config()};
  std::int64_t probes_in_flight = 0;
  std::string violation;

  void worker(const std::array<bool, 3>& verdicts, Coverage& seen) {
    const std::vector<std::int64_t>& ladder = model_config().ladder;
    for (const bool healthy : verdicts) {
      sched::yield_point("admit");
      const TGovernor::Decision d = governor.admit();
      // No decision point since admit(): both inputs are as it saw them.
      const std::int64_t rung = governor.health_rung();
      const std::int64_t level = governor.load_level();
      if (!d.allow) {
        if (probes_in_flight > 0) ++seen.refused_during_probe;
        continue;  // refused batches never reach record_health()
      }
      if (d.time_steps != ladder[static_cast<std::size_t>(std::max(rung, level))]) {
        violation = "admitted T is not ladder[max(health rung, load level)]";
      }
      if (level > rung) ++seen.load_capped;
      if (d.probe) {
        ++seen.probes;
        if (++probes_in_flight > 1) violation = "two probes in flight";
        if (governor.state() != BreakerState::kHalfOpen) {
          violation = "probe admitted outside half-open";
        }
      }
      sched::yield_point("record");
      governor.record_health(healthy);
      if (d.probe) --probes_in_flight;
    }
  }
};

sched::ModelRun make_governor_run(Coverage& seen) {
  auto m = std::make_shared<GovernorModel>();
  sched::ModelRun run;
  run.bodies.push_back([m, &seen] { m->worker({false, false, true}, seen); });
  run.bodies.push_back([m, &seen] { m->worker({false, true, true}, seen); });
  run.bodies.push_back([m] {  // the collect loops' queue-depth observations
    for (const double depth : {1.0, 0.0}) {
      sched::yield_point("load");
      m->governor.observe_load(depth);
    }
  });
  run.verify = [m, &seen] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("governor invariant: " + why);
    };
    if (!m->violation.empty()) fail(m->violation);
    if (m->probes_in_flight != 0) fail("probe never reported");
    std::int64_t opened = 0;
    std::int64_t recovered = 0;
    const std::vector<TGovernor::Transition> history = m->governor.history();
    for (std::size_t i = 0; i < history.size(); ++i) {
      const TGovernor::Transition& t = history[i];
      if (t.state == BreakerState::kOpen && t.cause == "last rung exhausted") ++opened;
      if (t.state == BreakerState::kClosed && t.cause == "recovered to full T") {
        ++recovered;
      }
      if (i > 0 && t.batch <= history[i - 1].batch) fail("history out of order");
    }
    if (m->governor.trips() != opened) fail("trips() disagrees with history()");
    if (m->governor.recoveries() != recovered) {
      fail("recoveries() disagrees with history()");
    }
    seen.trips += opened;
    seen.recoveries += recovered;
  };
  return run;
}

TEST(GovernorModelTest, ProbeLedgerAndAdmittedTAcrossInterleavings) {
  // Every transition logs a line; 8000 runs would print tens of thousands.
  const obs::LogLevel saved = obs::log_level();
  obs::set_log_level(obs::LogLevel::kWarn);
  Coverage seen;
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 6000;
  opts.random_runs = 2000;
  const sched::ExploreStats stats =
      sched::explore([&seen] { return make_governor_run(seen); }, opts);
  obs::set_log_level(saved);
  // 6 + 6 + 2 decision points: 84084 interleavings, so the depth-first phase
  // covers a prefix of the tree and the seeded random tails sample the rest.
  EXPECT_EQ(stats.runs, 8000);
  EXPECT_GT(seen.probes, 0);
  EXPECT_GT(seen.refused_during_probe, 0);
  EXPECT_GT(seen.trips, 0);
  EXPECT_GT(seen.recoveries, 0);
  EXPECT_GT(seen.load_capped, 0);
}

}  // namespace
}  // namespace ullsnn::serve
