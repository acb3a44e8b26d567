// TGovernor: the one controller that picks each batch's time-step budget T.
//
// The paper's central result — accuracy holds down to T = 2-3 when per-layer
// (alpha, beta) scaling is used — gives a converted SNN a degradation axis
// that conventional DNN serving lacks: the engine can shed *time steps*
// instead of requests. One ladder of budgets, from full quality down,
//
//     T = ladder[0] -> ladder[1] -> ... -> ladder.back()
//
// is walked by two independent inputs, and every batch runs at
//
//     T = ladder[max(health_rung, load_level)]
//
//  - Health (record_health, one verdict per admitted batch): the health rung
//    descends one step per `failure_threshold` consecutive unhealthy batches
//    (NaN/Inf/exploded logits, or exhausted forward retries) and climbs one
//    step per `recovery_threshold` consecutive healthy ones. Falling off the
//    last rung opens the circuit: batches get a static kUnavailable response
//    without touching the network. After `open_cooldown` refused batches the
//    circuit half-opens and admits a single probe batch at the last rung;
//    success re-enters the ladder, failure re-opens. Availability (closed /
//    degraded / open / half-open) is driven by health alone.
//
//  - Load (observe_load, one queue-depth fraction per collected batch):
//    `dwell` consecutive observations at or above `high_watermark` lower the
//    load level one step (brownout); `dwell` at or below `low_watermark`
//    raise it back; anything in between resets both streaks (hysteresis).
//    Load can lower T but never opens the circuit.
//
// All bookkeeping is count-based rather than wall-clock-based, so a fixed
// verdict or load schedule drives a bit-identical transition sequence — the
// chaos tests assert the exact healthy -> degraded -> open -> half-open ->
// healthy path. Health transitions go to history() and the flight recorder
// (kind "breaker"); load transitions to the flight recorder (kind
// "brownout"). The serve.breaker.* and serve.overload.brownout_* instruments
// are direct registry references, exact in every build configuration.
//
// Thread-safe: all state sits behind one mutex (every worker shares one
// governor; decisions are per batch, far off the per-element hot path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/mutex.h"

namespace ullsnn::obs {
class Counter;
class Gauge;
}  // namespace ullsnn::obs

namespace ullsnn::serve {

/// Health-driven availability state.
enum class BreakerState {
  kClosed,    // top health rung: full time-step budget
  kDegraded,  // on a lower health rung: serving at reduced T
  kOpen,      // circuit open: static unavailable responses
  kHalfOpen,  // cooldown elapsed: next batch is a probe
};

const char* to_string(BreakerState state);

struct GovernorConfig {
  /// Time-step budgets from full quality to most degraded. Must be non-empty
  /// and strictly decreasing (e.g. {3, 2, 1}).
  std::vector<std::int64_t> ladder = {3, 2, 1};

  // ---- health input ----
  /// Consecutive unhealthy batches before descending one rung (or opening
  /// when already on the last rung).
  std::int64_t failure_threshold = 3;
  /// Consecutive healthy batches before ascending one rung.
  std::int64_t recovery_threshold = 8;
  /// Batches refused while open before half-opening for a probe.
  std::int64_t open_cooldown = 16;

  // ---- load input ----
  /// Queue-depth fraction (total depth / total capacity) at or above which
  /// pressure accumulates toward one more brownout level.
  double high_watermark = 0.5;
  /// Fraction at or below which relief accumulates toward one level less.
  double low_watermark = 0.125;
  /// Consecutive observations above/below the watermark before the load
  /// level moves.
  std::int64_t dwell = 8;
};

class TGovernor {
 public:
  explicit TGovernor(GovernorConfig config);

  /// Per-batch gate. allow == false => respond kUnavailable without running
  /// the network. When allowed, run at `time_steps`; `probe` marks the
  /// single half-open trial batch; `degraded` marks a batch served below the
  /// top rung (or as a probe), whose answers are kDegraded.
  struct Decision {
    bool allow = true;
    std::int64_t time_steps = 0;
    bool probe = false;
    bool degraded = false;
  };
  Decision admit();

  /// Report the numeric verdict of an admitted batch. Drives all health
  /// rung and open/half-open transitions.
  void record_health(bool healthy);

  /// Feed one queue-depth observation (depth / capacity, >= 0). Returns the
  /// load level after the observation (0 = full quality).
  std::int64_t observe_load(double depth_fraction);

  /// One consistent view of both inputs, for /healthz.
  struct Status {
    BreakerState state = BreakerState::kClosed;
    std::int64_t load_level = 0;
    /// T the next admitted batch would run at; 0 while open.
    std::int64_t time_steps = 0;
    /// Either input is below the top rung.
    bool degraded = false;
  };
  Status status() const;

  BreakerState state() const;
  /// Current health rung (0 = top); the last rung while open/half-open.
  std::int64_t health_rung() const;
  std::int64_t load_level() const;
  /// ladder[max(health_rung, load_level)].
  std::int64_t time_steps() const;

  /// One entry per health state-or-rung change, in order. `batch` is the
  /// admit()/record_health() sequence number at which it happened (load
  /// observations do not advance it); `time_steps` is the health rung's T.
  struct Transition {
    std::int64_t batch = 0;
    BreakerState state = BreakerState::kClosed;
    std::int64_t time_steps = 0;
    std::string cause;
  };
  std::vector<Transition> history() const;

  std::int64_t trips() const;       // times the circuit opened
  std::int64_t recoveries() const;  // times health returned to the top rung
  std::int64_t load_escalations() const;  // load levels descended
  std::int64_t load_recoveries() const;   // load levels climbed back
  /// Deepest load level reached so far (0 if never browned out).
  std::int64_t deepest_load_level() const;

 private:
  std::int64_t t_at(std::int64_t rung) const {
    return config_.ladder[static_cast<std::size_t>(rung)];
  }
  std::int64_t effective_rung() const REQUIRES(mu_) {
    return rung_ > load_level_ ? rung_ : load_level_;
  }
  /// Record a health transition and export the breaker instruments.
  void note_health(BreakerState state, const char* cause) REQUIRES(mu_);
  /// Export a load-level move and log it.
  void note_load(const char* cause) REQUIRES(mu_);

  const GovernorConfig config_;
  mutable Mutex mu_;
  // Health input.
  BreakerState state_ GUARDED_BY(mu_) = BreakerState::kClosed;
  std::int64_t rung_ GUARDED_BY(mu_) = 0;
  std::int64_t consecutive_failures_ GUARDED_BY(mu_) = 0;
  std::int64_t consecutive_successes_ GUARDED_BY(mu_) = 0;
  std::int64_t cooldown_remaining_ GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ GUARDED_BY(mu_) = false;
  std::int64_t sequence_ GUARDED_BY(mu_) = 0;  // admit()+record_health() count
  std::int64_t trips_ GUARDED_BY(mu_) = 0;
  std::int64_t recoveries_ GUARDED_BY(mu_) = 0;
  std::vector<Transition> history_ GUARDED_BY(mu_);
  // Load input.
  std::int64_t load_level_ GUARDED_BY(mu_) = 0;
  std::int64_t deepest_load_level_ GUARDED_BY(mu_) = 0;
  std::int64_t above_streak_ GUARDED_BY(mu_) = 0;
  std::int64_t below_streak_ GUARDED_BY(mu_) = 0;
  std::int64_t load_escalations_ GUARDED_BY(mu_) = 0;
  std::int64_t load_recoveries_ GUARDED_BY(mu_) = 0;

  // Always-on instruments (same contract as ServeEngine::ServeMetrics).
  struct Instruments {
    obs::Gauge& breaker_state;
    obs::Gauge& breaker_time_steps;
    obs::Counter& breaker_probes;
    obs::Counter& breaker_trips;
    obs::Counter& breaker_recoveries;
    obs::Gauge& brownout_level;
    obs::Gauge& brownout_time_steps;
    obs::Counter& brownout_escalations;
    obs::Counter& brownout_recoveries;
    static Instruments bind();
  };
  Instruments metrics_;
};

}  // namespace ullsnn::serve
