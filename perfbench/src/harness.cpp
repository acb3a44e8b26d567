#include "src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace serve = ullsnn::serve;

// ---- SeededStream ----

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

SeededStream::SeededStream(std::uint64_t seed) {
  for (std::uint64_t& s : s_) s = splitmix64(seed);
}

std::uint64_t SeededStream::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double SeededStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SeededStream::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("SeededStream::below: n must be positive");
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

// ---- schedules ----

std::vector<std::int64_t> shuffled_indices(std::int64_t n, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("shuffled_indices: n must be positive");
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  SeededStream rng(seed);
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

std::vector<Arrival> make_schedule(const OpenLoopSpec& spec, std::uint64_t seed) {
  if (!(spec.qps > 0.0) || !(spec.seconds > 0.0) || spec.pool_size <= 0 ||
      spec.interactive_fraction < 0.0 || spec.interactive_fraction > 1.0 ||
      spec.interactive_deadline_lo_ms > spec.interactive_deadline_hi_ms ||
      spec.batch_deadline_lo_ms > spec.batch_deadline_hi_ms) {
    throw std::invalid_argument("make_schedule: invalid spec");
  }
  // Independent streams per property, so changing e.g. the deadline range
  // does not reshuffle the arrival times.
  SeededStream times_rng(seed ^ 0x6761707300000000ULL);
  SeededStream classes(seed ^ 0x636C617300000000ULL);
  SeededStream deadlines(seed ^ 0x646C696E00000000ULL);
  const auto draw_deadline = [&deadlines](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    deadlines.below(static_cast<std::uint64_t>(hi - lo) + 1));
  };

  // A Poisson process conditioned on its count: exactly round(qps * seconds)
  // arrivals at uniform times. Every seed then offers the same number of
  // requests, so rates differ between seeds only by what the engine does.
  const double horizon_ns = spec.seconds * 1e9;
  const auto count = static_cast<std::int64_t>(std::llround(spec.qps * spec.seconds));
  std::vector<double> times(static_cast<std::size_t>(count));
  for (double& t : times) t = times_rng.uniform() * horizon_ns;
  std::sort(times.begin(), times.end());
  std::vector<Arrival> schedule;
  schedule.reserve(times.size());
  std::vector<std::int64_t> pass;
  std::size_t pass_pos = 0;
  std::uint64_t pass_index = 0;
  for (const double t_ns : times) {
    Arrival a;
    a.at_ns = static_cast<std::int64_t>(t_ns);
    const bool interactive = classes.uniform() < spec.interactive_fraction;
    a.priority = interactive ? serve::Priority::kInteractive : serve::Priority::kBatch;
    a.deadline_ms = interactive ? draw_deadline(spec.interactive_deadline_lo_ms,
                                                spec.interactive_deadline_hi_ms)
                                : draw_deadline(spec.batch_deadline_lo_ms,
                                                spec.batch_deadline_hi_ms);
    if (pass_pos == pass.size()) {
      pass = shuffled_indices(spec.pool_size, seed * 0x100000001B3ULL + pass_index++);
      pass_pos = 0;
    }
    a.image = pass[pass_pos++];
    schedule.push_back(a);
  }
  return schedule;
}

// ---- percentiles ----

double quantile(std::vector<double>& values, double p) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("quantile: p must be in (0, 1]");
  if (!std::is_sorted(values.begin(), values.end())) {
    std::sort(values.begin(), values.end());
  }
  const auto n = static_cast<std::int64_t>(values.size());
  const auto rank = static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return values[static_cast<std::size_t>(std::clamp<std::int64_t>(rank, 1, n) - 1)];
}

std::int64_t samples_beyond(std::int64_t n, double p) {
  const auto rank = static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::int64_t>(rank, 1, std::max<std::int64_t>(n, 1));
}

double highest_supported_percentile(std::int64_t n, std::int64_t min_beyond) {
  double best = 0.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (n > 0 && samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

double chunked_quantile(const std::vector<double>& in_send_order, double p,
                        std::int64_t max_chunks, std::int64_t min_chunk,
                        std::vector<double>* per_chunk) {
  const auto n = static_cast<std::int64_t>(in_send_order.size());
  if (min_chunk <= 0 || max_chunks <= 0) {
    throw std::invalid_argument("chunked_quantile: chunk limits must be positive");
  }
  const std::int64_t k = std::min(max_chunks, n / min_chunk);
  if (k == 0) throw std::invalid_argument("chunked_quantile: too few values");
  std::vector<double> values;
  for (std::int64_t c = 0; c < k; ++c) {
    std::vector<double> chunk(in_send_order.begin() + c * n / k,
                              in_send_order.begin() + (c + 1) * n / k);
    values.push_back(quantile(chunk, p));
  }
  if (per_chunk != nullptr) *per_chunk = values;
  return median(std::move(values));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

// ---- ledger ----

void Ledger::record(serve::ResponseStatus status, bool accepted) {
  using serve::ResponseStatus;
  ++sent;
  switch (status) {
    case ResponseStatus::kOk: ++ok; break;
    case ResponseStatus::kDegraded: ++degraded; break;
    case ResponseStatus::kRejected: ++rejected; break;
    case ResponseStatus::kExpired: ++(accepted ? expired : shed_admission); break;
    case ResponseStatus::kShed: ++shed; break;
    case ResponseStatus::kTimeout: ++timeout; break;
    case ResponseStatus::kUnavailable: ++unavailable; break;
    case ResponseStatus::kError: ++error; break;
  }
}

std::int64_t Ledger::outcomes() const {
  return ok + degraded + rejected + shed_admission + expired + shed + timeout +
         unavailable + error;
}

double Ledger::fail_ratio() const {
  return sent > 0 ? static_cast<double>(sent - successes()) / static_cast<double>(sent)
                  : 0.0;
}

serve::ServeStats stats_delta(const serve::ServeStats& before,
                              const serve::ServeStats& after) {
  serve::ServeStats d;
  d.submitted = after.submitted - before.submitted;
  d.accepted = after.accepted - before.accepted;
  d.rejected = after.rejected - before.rejected;
  d.shed_admission = after.shed_admission - before.shed_admission;
  d.shed_deadline = after.shed_deadline - before.shed_deadline;
  d.shed_load = after.shed_load - before.shed_load;
  d.completed_ok = after.completed_ok - before.completed_ok;
  d.completed_degraded = after.completed_degraded - before.completed_degraded;
  d.completed_interactive = after.completed_interactive - before.completed_interactive;
  d.completed_batch = after.completed_batch - before.completed_batch;
  d.unavailable = after.unavailable - before.unavailable;
  d.timeouts = after.timeouts - before.timeouts;
  d.errors = after.errors - before.errors;
  d.retries = after.retries - before.retries;
  d.batches = after.batches - before.batches;
  d.swaps = after.swaps - before.swaps;
  d.brownout_level = after.brownout_level;
  d.brownout_escalations = after.brownout_escalations - before.brownout_escalations;
  d.brownout_recoveries = after.brownout_recoveries - before.brownout_recoveries;
  return d;
}

std::vector<std::string> ledger_mismatches(const Ledger& ledger,
                                           const serve::ServeStats& delta) {
  std::vector<std::string> out;
  const auto check = [&out](const char* what, std::int64_t client, std::int64_t engine) {
    if (client != engine) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: benchmark counted %lld, engine %lld", what,
                    static_cast<long long>(client), static_cast<long long>(engine));
      out.emplace_back(buf);
    }
  };
  check("sent vs sum of outcomes", ledger.sent, ledger.outcomes());
  check("sent", ledger.sent, delta.submitted);
  check("ok", ledger.ok, delta.completed_ok);
  check("degraded", ledger.degraded, delta.completed_degraded);
  check("rejected", ledger.rejected, delta.rejected);
  check("shed at admission", ledger.shed_admission, delta.shed_admission);
  check("expired after admission", ledger.expired, delta.shed_deadline);
  check("shed (CoDel)", ledger.shed, delta.shed_load);
  check("timeout", ledger.timeout, delta.timeouts);
  check("unavailable", ledger.unavailable, delta.unavailable);
  check("error", ledger.error, delta.errors);
  return out;
}

// ---- accuracy interval ----

Interval wilson95(std::int64_t hits, std::int64_t n) {
  if (n <= 0 || hits < 0 || hits > n) throw std::invalid_argument("wilson95: bad counts");
  constexpr double z = 1.959963984540054;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(hits) / nn;
  const double denom = 1.0 + z * z / nn;
  const double centre = (p + z * z / (2.0 * nn)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / nn + z * z / (4.0 * nn * nn)) / denom;
  return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

// ---- metric names and the result line ----

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return is_alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) || !seen.insert(m.name).second) {
      throw std::invalid_argument("result_json: bad or duplicate metric " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("result_json: non-finite value for " + m.name);
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
