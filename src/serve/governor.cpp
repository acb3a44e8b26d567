#include "src/serve/governor.h"

#include <stdexcept>

#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ullsnn::serve {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kDegraded: return "degraded";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

TGovernor::Instruments TGovernor::Instruments::bind() {
  obs::Registry& r = obs::Registry::instance();
  return Instruments{
      r.gauge("serve.breaker.state"),
      r.gauge("serve.breaker.time_steps"),
      r.counter("serve.breaker.probes"),
      r.counter("serve.breaker.trips"),
      r.counter("serve.breaker.recoveries"),
      r.gauge("serve.overload.brownout_level"),
      r.gauge("serve.overload.brownout_time_steps"),
      r.counter("serve.overload.brownout_escalations"),
      r.counter("serve.overload.brownout_recoveries"),
  };
}

TGovernor::TGovernor(GovernorConfig config)
    : config_(std::move(config)), metrics_(Instruments::bind()) {
  if (config_.ladder.empty()) {
    throw std::invalid_argument("TGovernor: ladder must be non-empty");
  }
  for (std::size_t i = 0; i < config_.ladder.size(); ++i) {
    if (config_.ladder[i] <= 0) {
      throw std::invalid_argument("TGovernor: ladder time steps must be positive");
    }
    if (i > 0 && config_.ladder[i] >= config_.ladder[i - 1]) {
      throw std::invalid_argument("TGovernor: ladder must be strictly decreasing");
    }
  }
  if (config_.failure_threshold <= 0 || config_.recovery_threshold <= 0 ||
      config_.open_cooldown <= 0 || config_.dwell <= 0) {
    throw std::invalid_argument("TGovernor: thresholds and dwell must be positive");
  }
  if (!(config_.low_watermark >= 0.0 && config_.low_watermark < config_.high_watermark)) {
    throw std::invalid_argument("TGovernor: need 0 <= low_watermark < high_watermark");
  }
  const double top = static_cast<double>(config_.ladder[0]);
  metrics_.breaker_state.set(0.0);
  metrics_.breaker_time_steps.set(top);
  metrics_.brownout_level.set(0.0);
  metrics_.brownout_time_steps.set(top);
}

void TGovernor::note_health(BreakerState state, const char* cause) {
  state_ = state;
  const std::int64_t t = state == BreakerState::kOpen ? 0 : t_at(rung_);
  history_.push_back({sequence_, state, t, cause});
  // Numeric state encoding for the exported gauge: closed 0, degraded 1,
  // open 2, half-open 3.
  metrics_.breaker_state.set(static_cast<double>(static_cast<int>(state)));
  metrics_.breaker_time_steps.set(static_cast<double>(t));
  ULLSNN_TRACE_INSTANT("serve.breaker.transition");
  // Every transition lands in the flight recorder's event ring; an open
  // circuit is an anomaly and additionally triggers a (rate-limited) dump.
  if (state == BreakerState::kOpen) {
    obs::FlightRecorder::instance().note_anomaly(
        "breaker_open", "circuit opened: %s", cause);
  } else {
    obs::FlightRecorder::instance().record_event(
        "breaker", "-> %s (T=%lld): %s", to_string(state),
        static_cast<long long>(t), cause);
  }
  obs::logf(obs::LogLevel::kInfo, "[serve] breaker -> %s (T=%lld): %s",
            to_string(state), static_cast<long long>(t), cause);
}

void TGovernor::note_load(const char* cause) {
  const std::int64_t t = t_at(load_level_);
  metrics_.brownout_level.set(static_cast<double>(load_level_));
  metrics_.brownout_time_steps.set(static_cast<double>(t));
  obs::FlightRecorder::instance().record_event(
      "brownout", "-> level %lld (T=%lld): %s", static_cast<long long>(load_level_),
      static_cast<long long>(t), cause);
  obs::logf(obs::LogLevel::kInfo, "[serve] brownout -> level %lld (T=%lld): %s",
            static_cast<long long>(load_level_), static_cast<long long>(t), cause);
}

TGovernor::Decision TGovernor::admit() {
  MutexLock lock(mu_);
  ++sequence_;
  bool probe = false;
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kDegraded:
      break;
    case BreakerState::kOpen:
      if (--cooldown_remaining_ > 0) return {false, 0, false, false};
      note_health(BreakerState::kHalfOpen, "cooldown elapsed");
      probe = true;
      break;
    case BreakerState::kHalfOpen:
      // Another worker's probe is outstanding; stay unavailable until its
      // verdict lands.
      if (probe_in_flight_) return {false, 0, false, false};
      probe = true;
      break;
  }
  if (probe) {
    probe_in_flight_ = true;
    metrics_.breaker_probes.add(1);
  }
  // A probe runs on the last health rung, which max() keeps whatever the
  // load level.
  const std::int64_t rung = effective_rung();
  return {true, t_at(rung), probe, rung > 0 || probe};
}

void TGovernor::record_health(bool healthy) {
  MutexLock lock(mu_);
  ++sequence_;
  if (state_ == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;
    if (healthy) {
      consecutive_failures_ = 0;
      consecutive_successes_ = 0;
      note_health(rung_ == 0 ? BreakerState::kClosed : BreakerState::kDegraded,
                  "probe succeeded");
    } else {
      cooldown_remaining_ = config_.open_cooldown;
      note_health(BreakerState::kOpen, "probe failed");
    }
    return;
  }
  if (state_ == BreakerState::kOpen) return;  // refused batches report nothing
  if (healthy) {
    consecutive_failures_ = 0;
    if (++consecutive_successes_ >= config_.recovery_threshold && rung_ > 0) {
      consecutive_successes_ = 0;
      --rung_;
      if (rung_ == 0) {
        ++recoveries_;
        metrics_.breaker_recoveries.add(1);
        note_health(BreakerState::kClosed, "recovered to full T");
      } else {
        note_health(BreakerState::kDegraded, "climbed one rung");
      }
    }
    return;
  }
  consecutive_successes_ = 0;
  if (++consecutive_failures_ < config_.failure_threshold) return;
  consecutive_failures_ = 0;
  if (rung_ + 1 < static_cast<std::int64_t>(config_.ladder.size())) {
    ++rung_;
    note_health(BreakerState::kDegraded, "descended one rung");
  } else {
    ++trips_;
    cooldown_remaining_ = config_.open_cooldown;
    metrics_.breaker_trips.add(1);
    note_health(BreakerState::kOpen, "last rung exhausted");
  }
}

std::int64_t TGovernor::observe_load(double depth_fraction) {
  MutexLock lock(mu_);
  if (depth_fraction >= config_.high_watermark) {
    below_streak_ = 0;
    if (++above_streak_ >= config_.dwell &&
        load_level_ + 1 < static_cast<std::int64_t>(config_.ladder.size())) {
      above_streak_ = 0;
      ++load_level_;
      if (load_level_ > deepest_load_level_) deepest_load_level_ = load_level_;
      ++load_escalations_;
      metrics_.brownout_escalations.add(1);
      note_load("sustained queue pressure");
    }
  } else if (depth_fraction <= config_.low_watermark) {
    above_streak_ = 0;
    if (++below_streak_ >= config_.dwell && load_level_ > 0) {
      below_streak_ = 0;
      --load_level_;
      ++load_recoveries_;
      metrics_.brownout_recoveries.add(1);
      note_load("queue pressure relieved");
    }
  } else {
    // Between the watermarks: hysteresis band, both streaks reset so the
    // level holds steady instead of oscillating.
    above_streak_ = 0;
    below_streak_ = 0;
  }
  return load_level_;
}

TGovernor::Status TGovernor::status() const {
  MutexLock lock(mu_);
  const std::int64_t rung = effective_rung();
  return {state_, load_level_, state_ == BreakerState::kOpen ? 0 : t_at(rung),
          rung > 0};
}

BreakerState TGovernor::state() const {
  MutexLock lock(mu_);
  return state_;
}

std::int64_t TGovernor::health_rung() const {
  MutexLock lock(mu_);
  return rung_;
}

std::int64_t TGovernor::load_level() const {
  MutexLock lock(mu_);
  return load_level_;
}

std::int64_t TGovernor::time_steps() const {
  MutexLock lock(mu_);
  return t_at(effective_rung());
}

std::vector<TGovernor::Transition> TGovernor::history() const {
  MutexLock lock(mu_);
  return history_;
}

std::int64_t TGovernor::trips() const {
  MutexLock lock(mu_);
  return trips_;
}

std::int64_t TGovernor::recoveries() const {
  MutexLock lock(mu_);
  return recoveries_;
}

std::int64_t TGovernor::load_escalations() const {
  MutexLock lock(mu_);
  return load_escalations_;
}

std::int64_t TGovernor::load_recoveries() const {
  MutexLock lock(mu_);
  return load_recoveries_;
}

std::int64_t TGovernor::deepest_load_level() const {
  MutexLock lock(mu_);
  return deepest_load_level_;
}

}  // namespace ullsnn::serve
