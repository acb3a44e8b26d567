// Unit tests for the benchmark's own logic (perfbench/src/harness.h):
// schedule determinism, the percentile rule, the ledger arithmetic and the
// metric-name rules of the result line.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/harness.h"

namespace perfbench {
namespace {

using ullsnn::serve::Priority;
using ullsnn::serve::ResponseStatus;
using ullsnn::serve::ServeStats;

OpenLoopSpec mixed_spec() {
  OpenLoopSpec spec;
  spec.qps = 1600.0;
  spec.seconds = 2.0;
  spec.interactive_fraction = 0.8;
  spec.pool_size = 100;
  return spec;
}

bool same(const Arrival& a, const Arrival& b) {
  return a.at_ns == b.at_ns && a.priority == b.priority && a.deadline_ms == b.deadline_ms &&
         a.image == b.image;
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const auto a = make_schedule(mixed_spec(), 7);
  const auto b = make_schedule(mixed_spec(), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same(a[i], b[i])) << i;
}

TEST(ScheduleTest, DifferentSeedDifferentSchedule) {
  const auto a = make_schedule(mixed_spec(), 7);
  const auto b = make_schedule(mixed_spec(), 8);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) equal += same(a[i], b[i]);
  EXPECT_LT(equal, a.size() / 10);
}

TEST(ScheduleTest, PinnedValuesForSeedOne) {
  // Guards against an accidental change of the generator: the same seed must
  // give the same load on every build, or parent and change are offered
  // different inputs.
  SeededStream rng(1);
  EXPECT_EQ(rng.next(), 12966619160104079557ULL);
  EXPECT_EQ(rng.next(), 9600361134598540522ULL);
  const auto s = make_schedule(mixed_spec(), 1);
  ASSERT_EQ(s.size(), 3200U);
  EXPECT_EQ(s[0].at_ns, 179926);
  EXPECT_EQ(s[0].priority, Priority::kInteractive);
  EXPECT_EQ(s[0].deadline_ms, 60);
  EXPECT_EQ(s[0].image, 36);
}

TEST(ScheduleTest, RateClassesDeadlinesAndOrderFollowTheSpec) {
  const OpenLoopSpec spec = mixed_spec();
  const auto s = make_schedule(spec, 42);
  EXPECT_EQ(s.size(), 3200U);  // exactly qps * seconds
  std::int64_t interactive = 0;
  std::int64_t previous = -1;
  for (const Arrival& a : s) {
    EXPECT_GE(a.at_ns, previous);
    EXPECT_LT(a.at_ns, static_cast<std::int64_t>(spec.seconds * 1e9));
    previous = a.at_ns;
    if (a.priority == Priority::kInteractive) {
      ++interactive;
      EXPECT_GE(a.deadline_ms, 40);
      EXPECT_LE(a.deadline_ms, 80);
    } else {
      EXPECT_GE(a.deadline_ms, 200);
      EXPECT_LE(a.deadline_ms, 400);
    }
  }
  EXPECT_NEAR(static_cast<double>(interactive) / static_cast<double>(s.size()), 0.8, 0.03);
  // Each pass over the pool serves every image exactly once.
  std::set<std::int64_t> first_pass;
  for (std::size_t i = 0; i < 100; ++i) first_pass.insert(s[i].image);
  EXPECT_EQ(first_pass.size(), 100U);
}

TEST(ScheduleTest, RejectsBadSpecs) {
  OpenLoopSpec spec = mixed_spec();
  spec.qps = 0.0;
  EXPECT_THROW(make_schedule(spec, 1), std::invalid_argument);
  spec = mixed_spec();
  spec.pool_size = 0;
  EXPECT_THROW(make_schedule(spec, 1), std::invalid_argument);
}

TEST(ScheduleTest, ShuffledIndicesIsAPermutation) {
  auto order = shuffled_indices(1000, 3);
  EXPECT_EQ(order, shuffled_indices(1000, 3));
  std::sort(order.begin(), order.end());
  for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(quantile(v, 0.99), 99.0);
  EXPECT_EQ(quantile(v, 1.0), 100.0);
  EXPECT_EQ(quantile(v, 0.001), 1.0);
  std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(samples_beyond(999, 0.99), 9);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(999), 0.9);
  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
}

TEST(PercentileTest, ChunkedQuantileIsTheMedianOverChunks) {
  // Three chunks of 1000: the middle one has a stall that lifts its tail.
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 1000; ++i) v.push_back(c == 1 && i > 900 ? 500.0 : i / 100.0);
  }
  std::vector<double> chunks;
  EXPECT_EQ(chunked_quantile(v, 0.99, 5, 1000, &chunks), 9.9);
  EXPECT_EQ(chunks, (std::vector<double>{9.9, 500.0, 9.9}));
  std::vector<double> pooled = v;
  EXPECT_EQ(quantile(pooled, 0.99), 500.0);  // the stall would own the pooled p99
  EXPECT_EQ(chunked_quantile(v, 0.5, 5, 1000), 5.0);
  // Never more chunks than asked for, never a chunk under the minimum.
  EXPECT_EQ(chunked_quantile(v, 0.5, 2, 1000, &chunks), 3.75);
  EXPECT_EQ(chunks.size(), 2U);
  EXPECT_EQ(chunked_quantile(std::vector<double>(1999, 1.0), 0.99, 5, 1000, &chunks), 1.0);
  EXPECT_EQ(chunks.size(), 1U);
  EXPECT_THROW(chunked_quantile(std::vector<double>(999, 1.0), 0.99, 5, 1000),
               std::invalid_argument);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(LedgerTest, EveryOutcomeHasOneBucket) {
  Ledger l;
  l.record(ResponseStatus::kOk, true);
  l.record(ResponseStatus::kDegraded, true);
  l.record(ResponseStatus::kRejected, false);
  l.record(ResponseStatus::kExpired, false);  // shed at admission
  l.record(ResponseStatus::kExpired, true);   // expired after admission
  l.record(ResponseStatus::kShed, true);
  l.record(ResponseStatus::kTimeout, true);
  l.record(ResponseStatus::kUnavailable, true);
  l.record(ResponseStatus::kError, true);
  EXPECT_EQ(l.sent, 9);
  EXPECT_EQ(l.successes(), 2);
  EXPECT_EQ(l.shed_admission, 1);
  EXPECT_EQ(l.expired, 1);
  EXPECT_EQ(l.outcomes(), l.sent);
  EXPECT_DOUBLE_EQ(l.fail_ratio(), 7.0 / 9.0);
  EXPECT_EQ(Ledger{}.fail_ratio(), 0.0);
}

ServeStats engine_view(const Ledger& l) {
  ServeStats d;
  d.submitted = l.sent;
  d.completed_ok = l.ok;
  d.completed_degraded = l.degraded;
  d.rejected = l.rejected;
  d.shed_admission = l.shed_admission;
  d.shed_deadline = l.expired;
  d.shed_load = l.shed;
  d.timeouts = l.timeout;
  d.unavailable = l.unavailable;
  d.errors = l.error;
  return d;
}

TEST(LedgerTest, MatchesEngineDeltasExactly) {
  Ledger l;
  for (int i = 0; i < 5; ++i) l.record(ResponseStatus::kOk, true);
  l.record(ResponseStatus::kShed, true);
  l.record(ResponseStatus::kRejected, false);
  EXPECT_TRUE(ledger_mismatches(l, engine_view(l)).empty());

  ServeStats lost = engine_view(l);
  lost.submitted += 1;  // the engine saw a request the benchmark lost
  EXPECT_EQ(ledger_mismatches(l, lost).size(), 1U);

  ServeStats moved = engine_view(l);
  moved.shed_load -= 1;  // same total, different bucket
  moved.shed_deadline += 1;
  EXPECT_EQ(ledger_mismatches(l, moved).size(), 2U);

  Ledger unbalanced = l;
  unbalanced.sent += 1;
  ServeStats d = engine_view(unbalanced);
  EXPECT_FALSE(ledger_mismatches(unbalanced, d).empty());
}

TEST(LedgerTest, StatsDeltaSubtractsCounters) {
  ServeStats before, after;
  before.submitted = 10;
  after.submitted = 25;
  before.brownout_escalations = 1;
  after.brownout_escalations = 4;
  after.brownout_level = 2;
  const ServeStats d = stats_delta(before, after);
  EXPECT_EQ(d.submitted, 15);
  EXPECT_EQ(d.brownout_escalations, 3);
  EXPECT_EQ(d.brownout_level, 2);  // a level, not a counter
}

TEST(WilsonTest, KnownValues) {
  const Interval half = wilson95(50, 100);
  EXPECT_NEAR(half.lo, 0.4038, 1e-4);
  EXPECT_NEAR(half.hi, 0.5962, 1e-4);
  const Interval none = wilson95(0, 10);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
  EXPECT_THROW(wilson95(3, 2), std::invalid_argument);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(valid_metric_name("latency_p99_ms"));
  EXPECT_TRUE(valid_metric_name("snn.L10.step_us"));
  EXPECT_TRUE(valid_metric_name("0-ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("GMAC/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(ResultJsonTest, FormatAndValidation) {
  const std::string line = result_json(true, 10, 1, {{"setup_s", 0.125, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1.0, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", std::nan(""), "s"}}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
