// Pure, engine-independent pieces of the serving benchmark: the seeded load
// schedule, the percentile rule, the request ledger, the accuracy interval
// and the metric-name rules. Everything here is deterministic and unit
// tested (perfbench/tests/harness_test.cpp); main.cpp wires it to the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/engine.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// splitmix64-seeded xoshiro256** stream. Self-contained (no std::
/// distribution objects), so one seed yields the same schedule with every
/// standard library.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform integer in [0, n); n > 0. Rejection-sampled, so unbiased.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t s_[4];
};

/// One request of an open-loop schedule.
struct Arrival {
  std::int64_t at_ns = 0;  // intended send time, relative to the run start
  ullsnn::serve::Priority priority = ullsnn::serve::Priority::kInteractive;
  /// Deadline relative to the intended send time; 0 = no deadline.
  std::int64_t deadline_ms = 0;
  std::int64_t image = 0;  // index into the eval pool
};

struct OpenLoopSpec {
  double qps = 0.0;
  double seconds = 0.0;
  double interactive_fraction = 1.0;
  std::int64_t interactive_deadline_lo_ms = 40;
  std::int64_t interactive_deadline_hi_ms = 80;
  std::int64_t batch_deadline_lo_ms = 200;
  std::int64_t batch_deadline_hi_ms = 400;
  std::int64_t pool_size = 0;
};

/// Poisson arrivals at `spec.qps` over `spec.seconds` (conditioned on the
/// count: exactly round(qps * seconds) requests at uniform times), with priorities,
/// uniform deadlines and image order all drawn from `seed`. Images visit the
/// pool in seed-shuffled passes, so every pool image is served about equally
/// often. Throws std::invalid_argument on a nonsensical spec.
std::vector<Arrival> make_schedule(const OpenLoopSpec& spec, std::uint64_t seed);

/// Seed-shuffled permutation of [0, n).
std::vector<std::int64_t> shuffled_indices(std::int64_t n, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank p-quantile (0 < p <= 1) of `values`, which is sorted in place
/// if not already. Throws on an empty sample.
double quantile(std::vector<double>& values, double p);

/// Samples strictly above the nearest-rank p-quantile position: n - ceil(p n).
std::int64_t samples_beyond(std::int64_t n, double p);

/// The percentile rule: the highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that has
/// at least `min_beyond` (10) samples beyond it; 0 when even the median
/// has fewer.
double highest_supported_percentile(std::int64_t n, std::int64_t min_beyond = 10);

/// Robust per-run percentile: split `in_send_order` into the most contiguous
/// chunks, at most `max_chunks`, that each hold at least `min_chunk` values,
/// take the p-quantile of each chunk, and return the median over chunks. One
/// stalled stretch of a run then moves one chunk, not the result. Stores
/// each chunk's quantile in `*per_chunk` when given. Throws when fewer than
/// `min_chunk` values.
double chunked_quantile(const std::vector<double>& in_send_order, double p,
                        std::int64_t max_chunks, std::int64_t min_chunk,
                        std::vector<double>* per_chunk = nullptr);

/// Median of `values`: quantile(values, 0.5), the lower median for an even count.
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Request ledger
// ---------------------------------------------------------------------------

/// Client-side tally of every request the benchmark sent, one bucket per
/// terminal outcome. `shed_admission` is a kExpired refusal at submit;
/// `expired` is a kExpired after admission.
struct Ledger {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t rejected = 0;
  std::int64_t shed_admission = 0;
  std::int64_t expired = 0;
  std::int64_t shed = 0;
  std::int64_t timeout = 0;
  std::int64_t unavailable = 0;
  std::int64_t error = 0;

  /// Count one terminal outcome (`accepted` is SubmitResult::accepted).
  void record(ullsnn::serve::ResponseStatus status, bool accepted);
  std::int64_t successes() const { return ok + degraded; }
  /// Sum of every outcome bucket; equals `sent` for a complete ledger.
  std::int64_t outcomes() const;
  /// (sent - successes) / sent; 0 for an empty ledger.
  double fail_ratio() const;
};

/// Field-wise `after - before` of the engine's monotonic counters.
ullsnn::serve::ServeStats stats_delta(const ullsnn::serve::ServeStats& before,
                                      const ullsnn::serve::ServeStats& after);

/// Empty when the ledger balances and equals the engine's counter deltas
/// over the same window exactly, bucket by bucket; otherwise one line per
/// mismatch.
std::vector<std::string> ledger_mismatches(const Ledger& ledger,
                                           const ullsnn::serve::ServeStats& delta);

// ---------------------------------------------------------------------------
// Accuracy interval
// ---------------------------------------------------------------------------

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// 95 % Wilson score interval for `hits` successes out of `n` trials.
Interval wilson95(std::int64_t hits, std::int64_t n);

// ---------------------------------------------------------------------------
// Metric names and the result line
// ---------------------------------------------------------------------------

/// Starts with a letter or digit; at most 64 of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& name);
/// 1 to 16 of [A-Za-z0-9_/%.-].
bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values are printed with full double precision. Throws
/// std::invalid_argument on an invalid or duplicate name or unit, or a
/// non-finite value.
std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
