#include "src/serve/governor.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ullsnn::serve {
namespace {

GovernorConfig fast_config() {
  GovernorConfig c;
  c.ladder = {3, 2, 1};
  c.failure_threshold = 2;
  c.recovery_threshold = 3;
  c.open_cooldown = 4;
  return c;
}

/// admit() + record() for one batch; returns the admitted T (0 if refused).
std::int64_t run_batch(TGovernor& breaker, bool healthy) {
  const TGovernor::Decision d = breaker.admit();
  if (!d.allow) return 0;
  breaker.record_health(healthy);
  return d.time_steps;
}

TEST(CircuitBreakerTest, ValidatesConfig) {
  GovernorConfig empty;
  empty.ladder = {};
  EXPECT_THROW(TGovernor{empty}, std::invalid_argument);
  GovernorConfig increasing;
  increasing.ladder = {2, 3};
  EXPECT_THROW(TGovernor{increasing}, std::invalid_argument);
  GovernorConfig zero_t;
  zero_t.ladder = {2, 0};
  EXPECT_THROW(TGovernor{zero_t}, std::invalid_argument);
  GovernorConfig bad_threshold = fast_config();
  bad_threshold.failure_threshold = 0;
  EXPECT_THROW(TGovernor{bad_threshold}, std::invalid_argument);
}

TEST(CircuitBreakerTest, StartsClosedAtFullTimeSteps) {
  TGovernor breaker(fast_config());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.health_rung(), 0);
  EXPECT_EQ(breaker.time_steps(), 3);
  const TGovernor::Decision d = breaker.admit();
  EXPECT_TRUE(d.allow);
  EXPECT_EQ(d.time_steps, 3);
  EXPECT_FALSE(d.probe);
}

TEST(CircuitBreakerTest, ConsecutiveFailuresDescendTheLadder) {
  TGovernor breaker(fast_config());
  // failure_threshold = 2: two unhealthy batches per rung.
  run_batch(breaker, false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // 1 failure: no move yet
  run_batch(breaker, false);
  EXPECT_EQ(breaker.state(), BreakerState::kDegraded);
  EXPECT_EQ(breaker.time_steps(), 2);
  run_batch(breaker, false);
  run_batch(breaker, false);
  EXPECT_EQ(breaker.time_steps(), 1);
  run_batch(breaker, false);
  run_batch(breaker, false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, InterleavedSuccessResetsTheFailureStreak) {
  TGovernor breaker(fast_config());
  // fail, heal, fail, heal, ... never reaches failure_threshold = 2 in a row.
  for (int i = 0; i < 10; ++i) {
    run_batch(breaker, false);
    run_batch(breaker, true);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.time_steps(), 3);
  EXPECT_EQ(breaker.trips(), 0);
}

TEST(CircuitBreakerTest, OpenRefusesUntilCooldownThenProbes) {
  TGovernor breaker(fast_config());
  for (int i = 0; i < 6; ++i) run_batch(breaker, false);  // drive to open
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // open_cooldown = 4: three refusals, then the fourth admit is the probe.
  for (int i = 0; i < 3; ++i) {
    const TGovernor::Decision d = breaker.admit();
    EXPECT_FALSE(d.allow) << "refusal " << i;
  }
  const TGovernor::Decision probe = breaker.admit();
  EXPECT_TRUE(probe.allow);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(probe.time_steps, 1);  // probes run at the most conservative rung
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // While the probe is in flight, other workers stay refused.
  EXPECT_FALSE(breaker.admit().allow);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  TGovernor breaker(fast_config());
  for (int i = 0; i < 6; ++i) run_batch(breaker, false);
  for (int i = 0; i < 3; ++i) breaker.admit();
  ASSERT_TRUE(breaker.admit().probe);
  breaker.record_health(false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The cooldown restarts in full.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(breaker.admit().allow);
  EXPECT_TRUE(breaker.admit().probe);
}

TEST(CircuitBreakerTest, FullTripAndRecoveryPath) {
  TGovernor breaker(fast_config());
  // Descend: closed -> degraded(T=2) -> degraded(T=1) -> open.
  for (int i = 0; i < 6; ++i) run_batch(breaker, false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Cooldown, then a successful probe re-enters the ladder at the last rung.
  for (int i = 0; i < 3; ++i) breaker.admit();
  ASSERT_TRUE(breaker.admit().probe);
  breaker.record_health(true);
  EXPECT_EQ(breaker.state(), BreakerState::kDegraded);
  EXPECT_EQ(breaker.time_steps(), 1);
  // recovery_threshold = 3 healthy batches per rung: 1 -> 2 -> 3.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_batch(breaker, true), 1);
  EXPECT_EQ(breaker.time_steps(), 2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_batch(breaker, true), 2);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.time_steps(), 3);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(breaker.recoveries(), 1);

  // The transition history captures the whole arc in order.
  const auto history = breaker.history();
  std::vector<BreakerState> states;
  states.reserve(history.size());
  for (const auto& t : history) states.push_back(t.state);
  const std::vector<BreakerState> expected = {
      BreakerState::kDegraded,  // T=2
      BreakerState::kDegraded,  // T=1
      BreakerState::kOpen,      // tripped
      BreakerState::kHalfOpen,  // cooldown elapsed
      BreakerState::kDegraded,  // probe succeeded, back on last rung
      BreakerState::kDegraded,  // climbed to T=2
      BreakerState::kClosed,    // recovered to full T
  };
  EXPECT_EQ(states, expected);
  // Batch sequence numbers are strictly increasing (event-ordered history).
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GT(history[i].batch, history[i - 1].batch);
  }
}

TEST(CircuitBreakerTest, DeterministicAcrossIdenticalRuns) {
  // Same verdict schedule => bit-identical transition history; this is the
  // property the chaos tests lean on.
  const auto drive = [](TGovernor& b) {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 6; ++i) run_batch(b, false);
      for (int i = 0; i < 3; ++i) b.admit();
      b.admit();
      b.record_health(true);
      for (int i = 0; i < 9; ++i) run_batch(b, true);
    }
  };
  TGovernor a(fast_config());
  TGovernor b(fast_config());
  drive(a);
  drive(b);
  const auto ha = a.history();
  const auto hb = b.history();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].batch, hb[i].batch);
    EXPECT_EQ(ha[i].state, hb[i].state);
    EXPECT_EQ(ha[i].time_steps, hb[i].time_steps);
    EXPECT_EQ(ha[i].cause, hb[i].cause);
  }
  EXPECT_EQ(a.trips(), 3);
  EXPECT_EQ(a.recoveries(), 3);
}

GovernorConfig brownout_config() {
  GovernorConfig c;
  c.high_watermark = 0.5;
  c.low_watermark = 0.125;
  c.dwell = 3;
  c.ladder = {3, 2, 1};
  return c;
}

TEST(BrownoutTest, ValidatesConfig) {
  GovernorConfig empty_ladder = brownout_config();
  empty_ladder.ladder = {};
  EXPECT_THROW(TGovernor{empty_ladder}, std::invalid_argument);
  GovernorConfig not_decreasing = brownout_config();
  not_decreasing.ladder = {3, 3, 1};
  EXPECT_THROW(TGovernor{not_decreasing}, std::invalid_argument);
  GovernorConfig zero_t = brownout_config();
  zero_t.ladder = {2, 0};
  EXPECT_THROW(TGovernor{zero_t}, std::invalid_argument);
  GovernorConfig zero_dwell = brownout_config();
  zero_dwell.dwell = 0;
  EXPECT_THROW(TGovernor{zero_dwell}, std::invalid_argument);
  GovernorConfig inverted_marks = brownout_config();
  inverted_marks.low_watermark = 0.6;  // >= high_watermark
  EXPECT_THROW(TGovernor{inverted_marks}, std::invalid_argument);
}

TEST(BrownoutTest, EscalatesOneRungPerDwell) {
  TGovernor brownout(brownout_config());
  EXPECT_EQ(brownout.time_steps(), 3);
  EXPECT_EQ(brownout.observe_load(0.6), 0);
  EXPECT_EQ(brownout.observe_load(0.6), 0);
  EXPECT_EQ(brownout.observe_load(0.6), 1);  // dwell=3 observations met
  EXPECT_EQ(brownout.time_steps(), 2);
  EXPECT_EQ(brownout.load_escalations(), 1);
  // Next rung needs a fresh dwell count.
  EXPECT_EQ(brownout.observe_load(0.9), 1);
  EXPECT_EQ(brownout.observe_load(0.9), 1);
  EXPECT_EQ(brownout.observe_load(0.9), 2);
  EXPECT_EQ(brownout.time_steps(), 1);
  // Clamped at the ladder floor.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(brownout.observe_load(1.0), 2);
  EXPECT_EQ(brownout.load_escalations(), 2);
  EXPECT_EQ(brownout.deepest_load_level(), 2);
}

TEST(BrownoutTest, RecoversOneRungPerDwell) {
  TGovernor brownout(brownout_config());
  for (int i = 0; i < 6; ++i) brownout.observe_load(0.8);
  ASSERT_EQ(brownout.load_level(), 2);
  EXPECT_EQ(brownout.observe_load(0.05), 2);
  EXPECT_EQ(brownout.observe_load(0.05), 2);
  EXPECT_EQ(brownout.observe_load(0.05), 1);
  EXPECT_EQ(brownout.observe_load(0.05), 1);
  EXPECT_EQ(brownout.observe_load(0.05), 1);
  EXPECT_EQ(brownout.observe_load(0.05), 0);
  EXPECT_EQ(brownout.time_steps(), 3);
  EXPECT_EQ(brownout.load_recoveries(), 2);
  // Fully recovered: stays at full quality.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(brownout.observe_load(0.0), 0);
  EXPECT_EQ(brownout.load_recoveries(), 2);
  EXPECT_EQ(brownout.deepest_load_level(), 2);  // history, not current level
}

TEST(BrownoutTest, HysteresisBandHoldsLevelAndResetsStreaks) {
  TGovernor brownout(brownout_config());
  for (int i = 0; i < 3; ++i) brownout.observe_load(0.7);
  ASSERT_EQ(brownout.load_level(), 1);
  // Between the watermarks: no drift in either direction, however long.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(brownout.observe_load(0.3), 1);
  // The band also resets partial streaks: 2 high, 1 mid, 2 high never
  // accumulates the 3-observation dwell.
  brownout.observe_load(0.7);
  brownout.observe_load(0.7);
  brownout.observe_load(0.3);
  brownout.observe_load(0.7);
  EXPECT_EQ(brownout.observe_load(0.7), 1);
  EXPECT_EQ(brownout.load_escalations(), 1);
}

// How the two inputs combine: every (health rung, load level) pair admits at
// ladder[max(rung, level)], a half-open probe runs on the last rung whatever
// the load, and load alone never touches availability.
GovernorConfig one_step_config() {
  GovernorConfig c;
  c.ladder = {4, 3, 2, 1};
  c.failure_threshold = 1;  // one unhealthy batch per health rung
  c.recovery_threshold = 1000;
  c.open_cooldown = 2;
  c.dwell = 1;  // one high observation per load level
  return c;
}

TEST(TGovernorTest, AdmitsAtTheDeeperOfHealthRungAndLoadLevel) {
  const GovernorConfig config = one_step_config();
  const auto rungs = static_cast<std::int64_t>(config.ladder.size());
  for (std::int64_t health = 0; health < rungs; ++health) {
    for (std::int64_t load = 0; load < rungs; ++load) {
      TGovernor governor(config);
      for (std::int64_t i = 0; i < health; ++i) run_batch(governor, false);
      for (std::int64_t i = 0; i < load; ++i) governor.observe_load(1.0);
      ASSERT_EQ(governor.health_rung(), health);
      ASSERT_EQ(governor.load_level(), load);
      const std::int64_t rung = std::max(health, load);
      const std::int64_t want = config.ladder[static_cast<std::size_t>(rung)];
      const TGovernor::Decision d = governor.admit();
      EXPECT_TRUE(d.allow) << "health " << health << " load " << load;
      EXPECT_FALSE(d.probe);
      EXPECT_EQ(d.time_steps, want) << "health " << health << " load " << load;
      EXPECT_EQ(d.degraded, rung > 0);
      EXPECT_EQ(governor.time_steps(), want);
      const TGovernor::Status status = governor.status();
      EXPECT_EQ(status.time_steps, want);
      EXPECT_EQ(status.load_level, load);
      EXPECT_EQ(status.degraded, rung > 0);
      EXPECT_EQ(status.state,
                health == 0 ? BreakerState::kClosed : BreakerState::kDegraded);
    }
  }
}

TEST(TGovernorTest, HalfOpenProbeRunsOnTheLastRungWhateverTheLoad) {
  const GovernorConfig config = one_step_config();
  const auto rungs = static_cast<std::int64_t>(config.ladder.size());
  for (std::int64_t load = 0; load < rungs; ++load) {
    TGovernor governor(config);
    for (std::int64_t i = 0; i < rungs; ++i) run_batch(governor, false);
    ASSERT_EQ(governor.state(), BreakerState::kOpen);
    for (std::int64_t i = 0; i < load; ++i) governor.observe_load(1.0);
    EXPECT_EQ(governor.status().time_steps, 0);  // open serves nothing
    EXPECT_FALSE(governor.admit().allow);        // cooldown
    const TGovernor::Decision probe = governor.admit();
    EXPECT_TRUE(probe.allow);
    EXPECT_TRUE(probe.probe);
    EXPECT_TRUE(probe.degraded);
    EXPECT_EQ(probe.time_steps, config.ladder.back()) << "load " << load;
    EXPECT_FALSE(governor.admit().allow);  // one probe at a time
    governor.record_health(true);
    EXPECT_EQ(governor.state(), BreakerState::kDegraded);
    EXPECT_EQ(governor.admit().time_steps, config.ladder.back());
  }
}

TEST(TGovernorTest, LoadAloneNeverOpensTheCircuit) {
  TGovernor governor(one_step_config());
  for (int i = 0; i < 100; ++i) governor.observe_load(1.0);
  EXPECT_EQ(governor.load_level(), 3);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.health_rung(), 0);
  for (int i = 0; i < 10; ++i) {
    const TGovernor::Decision d = governor.admit();
    EXPECT_TRUE(d.allow);
    EXPECT_FALSE(d.probe);
    EXPECT_EQ(d.time_steps, 1);
    governor.record_health(true);
  }
  EXPECT_EQ(governor.trips(), 0);
  // Load observations never advance the health history.
  EXPECT_TRUE(governor.history().empty());
}

}  // namespace
}  // namespace ullsnn::serve
