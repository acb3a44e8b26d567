// The serving bench: locate the serving knee, prove the overload and fault
// controls hold, and price the degradation ladder and the live endpoint.
//
// Load comes from serve::LoadGen, which is open-loop: a Poisson arrival
// schedule fixed before the run, every request submitted on time regardless
// of engine state, latency measured from the intended arrival. A closed-loop
// driver would throttle itself under overload and never see it (coordinated
// omission).
//
// Modes (--overhead and --accuracy combine; with neither, the sweep runs):
//
//   sweep       1. Calibrate: a closed-loop saturation run measures the
//                  engine's service capacity (QPS) on this machine, so every
//                  sweep point is knee-relative and the checked-in gates are
//                  machine-independent.
//               2. Sweep: one fresh engine per point at --rel multiples of
//                  the knee (default 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
//                  reporting per-class goodput, shed rate, and
//                  coordinated-omission-safe latency percentiles.
//               3. Gate (exit 1 on violation):
//                  - exact conservation at every point, in both the
//                    generator's ledger and the engine's own stats;
//                  - zero watchdog terminations (shedding must act first);
//                  - queue peak: each priority lane's peak depth within its
//                    capacity at every point;
//                  - sub-knee: >= 99% of interactive submissions fulfilled;
//                  - overload (>= 2x knee): fulfilled-request p99 within 2x
//                    of the sub-knee p99 — shedding keeps admitted work fast;
//                  - overload: interactive goodput strictly above batch
//                    goodput (priority inversion absent);
//                  - goodput retention: supra-knee goodput >= 80% of the
//                    best sub/at-knee goodput;
//                  - clean drain from the deepest overload point: queue
//                    empty and ledger balanced after the offered load stops;
//                  - with --faults R > 0: at every point at or below the
//                    knee, >= 99% of accepted in-deadline requests complete
//                    without an error (retry must absorb transient faults);
//                  - with --http: a mid-point /healthz probe answers 200 or
//                    503, and a quiescent /metrics scrape equals the engine
//                    ledger exactly.
//   --overhead  the endpoint cost gate: p99 under identical clean paced load
//               with the live endpoint off vs on (plus a 20 Hz background
//               /metrics scraper on the "on" legs). Exit 1 if
//               p99_on > 1.05 * p99_off + 0.5 ms.
//   --accuracy  the ladder's accuracy cost: one SNN converted at T=3
//               evaluated at T=3/2/1 (what the governor does), next to a
//               fresh conversion at each T (the fair baseline).
//
// Faults (sweep): --faults R throws a transient error on the first forward
// attempt of an id-keyed R share of requests (retries run clean);
// --stall-rate/--stall-ms and --slow-replicas/--slow-factor route
// robust::FaultInjector worker-stall and slow-replica faults through the
// engine's chaos hooks. Every gate above must hold under them.
//
// Options: --seconds N (per sweep point; --overhead runs 4 legs of N/2),
//          --workers N, --rel "0.5,1,2", --base-qps Q (skip calibration;
//          Q becomes the knee), --faults R, --stall-rate R --stall-ms M,
//          --slow-replicas R --slow-factor F, --http PORT (each sweep
//          engine serves /metrics,/healthz,/flight; 0 = ephemeral),
//          --json PATH.
//
// The JSON snapshot (tools/bench_to_json.sh load) is the checked-in
// bench/BENCH_load.json baseline; tools/compare_bench.py --load re-checks
// the gate booleans.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/obs/exposition.h"
#include "src/robust/fault_injector.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/util/mutex.h"
#include "src/util/timer.h"
#include "tests/testutil/http_get.h"

using namespace ullsnn;

namespace {

/// Admission capacity of each priority lane.
constexpr std::int64_t kLaneCapacity = 64;

struct Options {
  bool sweep = true;  // unless --overhead or --accuracy
  bool overhead = false;
  bool accuracy = false;
  double seconds = -1.0;  // per sweep point; <0 = scale default
  std::int64_t workers = 2;
  std::vector<double> rel = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  double base_qps = 0.0;  // >0 skips calibration
  double fault_rate = 0.0;
  double stall_rate = 0.0;
  std::int64_t stall_ms = 20;
  double slow_replica_rate = 0.0;
  double slow_replica_factor = 3.0;
  int http_port = -1;  // -1 = endpoint off; 0 = ephemeral; >0 = fixed port
  std::string json_path;
};

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> values;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  if (values.empty()) {
    throw std::invalid_argument("--rel needs a non-empty comma list");
  }
  std::sort(values.begin(), values.end());
  return values;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--overhead") {
      opt.overhead = true;
    } else if (arg == "--accuracy") {
      opt.accuracy = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--workers") {
      opt.workers = std::stoll(next());
    } else if (arg == "--rel") {
      opt.rel = parse_list(next());
    } else if (arg == "--base-qps") {
      opt.base_qps = std::stod(next());
    } else if (arg == "--faults") {
      opt.fault_rate = std::stod(next());
    } else if (arg == "--stall-rate") {
      opt.stall_rate = std::stod(next());
    } else if (arg == "--stall-ms") {
      opt.stall_ms = std::stoll(next());
    } else if (arg == "--slow-replicas") {
      opt.slow_replica_rate = std::stod(next());
    } else if (arg == "--slow-factor") {
      opt.slow_replica_factor = std::stod(next());
    } else if (arg == "--http") {
      opt.http_port = std::stoi(next());
    } else if (arg == "--json") {
      opt.json_path = next();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  opt.sweep = !opt.overhead && !opt.accuracy;
  if (opt.workers <= 0) throw std::invalid_argument("--workers must be positive");
  if (opt.fault_rate < 0.0 || opt.fault_rate > 1.0) {
    throw std::invalid_argument("--faults must be in [0, 1]");
  }
  if (opt.stall_rate < 0.0 || opt.stall_rate > 1.0) {
    throw std::invalid_argument("--stall-rate must be in [0, 1]");
  }
  if (opt.slow_replica_rate < 0.0 || opt.slow_replica_rate > 1.0) {
    throw std::invalid_argument("--slow-replicas must be in [0, 1]");
  }
  if (opt.http_port < -1 || opt.http_port > 65535) {
    throw std::invalid_argument("--http must be a port in [0, 65535]");
  }
  return opt;
}

/// The engine ledger must balance exactly at quiescence (see ServeStats).
bool engine_conserved(const serve::ServeStats& s) {
  return s.submitted == s.accepted + s.rejected + s.shed_admission &&
         s.accepted == s.completed_ok + s.completed_degraded +
                           s.shed_deadline + s.shed_load + s.unavailable +
                           s.timeouts + s.errors;
}

/// Value of the single-series line `name value` in Prometheus 0.0.4 text;
/// NaN when the series is absent.
double scrape_value(const std::string& body, const std::string& name) {
  const std::string prefix = name + " ";
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// At quiescence (every accepted future resolved, engine still running) the
/// exported serve.* series must agree EXACTLY with the engine's own ledger —
/// fulfillment publishes metrics before any waiter wakes, so there is no
/// window in which a drained client can out-race its own counters.
bool check_conservation(const std::string& metrics,
                        const serve::ServeStats& s) {
  struct Expect {
    const char* series;
    std::int64_t value;
  };
  const Expect expected[] = {
      {"serve_submitted", s.submitted},
      {"serve_accepted", s.accepted},
      {"serve_rejected", s.rejected},
      {"serve_completed_ok", s.completed_ok},
      {"serve_completed_degraded", s.completed_degraded},
      {"serve_timeouts", s.timeouts},
      {"serve_errors", s.errors},
      // Every accepted request is fulfilled exactly once, and every
      // fulfillment observes the total-latency histogram.
      {"serve_latency_total_ms_count", s.accepted},
  };
  bool ok = true;
  for (const Expect& e : expected) {
    const double got = scrape_value(metrics, e.series);
    if (std::isnan(got) ||
        static_cast<std::int64_t>(got) != e.value) {
      std::printf("FAIL: /metrics conservation: %s = %.0f, ledger says %lld\n",
                  e.series, got, static_cast<long long>(e.value));
      ok = false;
    }
  }
  return ok;
}

/// Deterministic per-request fault schedule: whether request `id` suffers a
/// transient fault on its first forward attempt. Keyed by a hash of the id,
/// not submission timing, so the faulted set is identical across runs and
/// thread interleavings.
bool fault_scheduled(std::int64_t id, double rate) {
  const auto h = static_cast<std::uint64_t>(id) * 1315423911ULL;
  return static_cast<double>(h % 10000ULL) < rate * 10000.0;
}

/// Shared engine configuration for every engine this bench builds. The
/// fault hooks and the endpoint (when enabled) are installed on top by
/// make_engine.
serve::ServeConfig base_config(const Options& opt, const Shape& input_shape) {
  serve::ServeConfig config;
  config.workers = opt.workers;
  config.queue_capacity = kLaneCapacity;        // interactive lane
  config.batch_queue_capacity = kLaneCapacity;  // batch lane
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(250);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 2;
  config.retry_backoff = std::chrono::microseconds(50);
  config.input_shape = input_shape;
  return config;
}

/// Per-worker slowdown routing: the chaos hooks carry no worker index, so
/// slow-replica delays key off a dense index assigned to each worker thread
/// on first sight. Assignment order is nondeterministic but the *number* of
/// slow workers is fixed by the injector's pure hash, which is what the
/// goodput gates depend on.
struct SlowReplicaRouter {
  robust::FaultInjector* injector;
  double per_batch_ms;  // nominal batch service time at calibrated capacity
  Mutex mu;
  std::map<std::thread::id, std::int64_t> dense GUARDED_BY(mu);

  void before_forward() {
    std::int64_t index = 0;
    {
      MutexLock lock(mu);
      const auto it = dense.find(std::this_thread::get_id());
      if (it == dense.end()) {
        index = static_cast<std::int64_t>(dense.size());
        dense.emplace(std::this_thread::get_id(), index);
      } else {
        index = it->second;
      }
    }
    const double factor = injector->replica_slowdown(index);
    if (factor > 1.0 && per_batch_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          per_batch_ms * (factor - 1.0)));
    }
  }
};

struct EngineHarness {
  std::unique_ptr<serve::ServeEngine> engine;
  std::shared_ptr<robust::FaultInjector> injector;
  std::shared_ptr<SlowReplicaRouter> router;
  std::shared_ptr<std::atomic<std::int64_t>> faults_fired;
};

/// `http_port` < 0 leaves the live endpoint off.
EngineHarness make_engine(const Options& opt, const Shape& input_shape,
                          const serve::NetworkFactory& factory,
                          bool with_faults, double per_batch_ms,
                          int http_port = -1) {
  EngineHarness h;
  serve::ServeConfig config = base_config(opt, input_shape);
  if (with_faults && (opt.stall_rate > 0.0 || opt.slow_replica_rate > 0.0)) {
    robust::FaultSpec spec;
    spec.stall_rate = opt.stall_rate;
    spec.stall_ms = std::chrono::milliseconds(opt.stall_ms);
    spec.slow_replica_rate = opt.slow_replica_rate;
    spec.slow_replica_factor = opt.slow_replica_factor;
    h.injector = std::make_shared<robust::FaultInjector>(spec);
    h.router = std::make_shared<SlowReplicaRouter>();
    h.router->injector = h.injector.get();
    h.router->per_batch_ms = per_batch_ms;
  }
  if (with_faults && opt.fault_rate > 0.0) {
    h.faults_fired = std::make_shared<std::atomic<std::int64_t>>(0);
  }
  if (h.injector != nullptr || h.faults_fired != nullptr) {
    auto injector = h.injector;
    auto router = h.router;
    auto faults_fired = h.faults_fired;
    const double rate = opt.fault_rate;
    config.before_forward_hook =
        [injector, router, faults_fired, rate](
            const std::vector<std::int64_t>& ids, std::int64_t attempt,
            snn::SnnNetwork&) {
          if (injector != nullptr) {
            injector->maybe_stall();
            router->before_forward();
          }
          if (faults_fired == nullptr || attempt > 0) return;  // retries run clean
          for (const std::int64_t id : ids) {
            if (fault_scheduled(id, rate)) {
              faults_fired->fetch_add(1);
              throw std::runtime_error("bench: injected transient fault");
            }
          }
        };
  }
  if (http_port >= 0) {
    config.obs.endpoint = true;
    config.obs.port = http_port;
  }
  h.engine = std::make_unique<serve::ServeEngine>(config, factory);
  return h;
}

/// Closed-loop saturation run: keep a deep backlog of no-deadline requests
/// in flight and measure completion throughput. That plateau is the service
/// capacity — the knee of the open-loop latency curve.
double calibrate_capacity_qps(const Options& opt, const Shape& input_shape,
                              const serve::NetworkFactory& factory,
                              const std::vector<Tensor>& images,
                              double seconds) {
  EngineHarness h =
      make_engine(opt, input_shape, factory, /*with_faults=*/false, 0.0);
  h.engine->start();
  constexpr std::int64_t kWave = 32;
  std::size_t image_index = 0;
  std::int64_t completed = 0;
  const auto submit_wave = [&] {
    std::vector<serve::ResponseFuture> futures;
    futures.reserve(kWave);
    for (std::int64_t k = 0; k < kWave; ++k) {
      Tensor image = images[image_index];
      image_index = (image_index + 1) % images.size();
      serve::SubmitOptions options;
      options.deadline = std::chrono::milliseconds(0);  // no deadline
      serve::SubmitResult r = h.engine->submit(std::move(image), options);
      if (r.accepted) futures.push_back(std::move(r.future));
    }
    return futures;
  };
  // Warmup wave (replica construction, cache effects) is not measured.
  for (const serve::ResponseFuture& f : submit_wave()) f.get();
  Timer wall;
  while (wall.seconds() < seconds) {
    for (const serve::ResponseFuture& f : submit_wave()) {
      f.get();
      ++completed;
    }
  }
  const double elapsed = wall.seconds();
  h.engine->stop();
  return elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
}

struct SweepPoint {
  double rel = 0.0;
  double qps = 0.0;
  serve::LoadReport report;
  serve::ServeStats stats;
  std::int64_t brownout_deepest = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t faults_fired = 0;
  std::int64_t queue_peak[serve::kPriorityClasses] = {};
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double max_lag_ms = 0.0;
  bool conserved = false;  // generator ledger AND engine ledger
  bool drained = false;    // queue empty after the offered load stopped
  // Live-endpoint probes (--http only).
  int healthz_status = 0;          // mid-point /healthz HTTP status
  bool metrics_conserved = false;  // quiescent /metrics == engine ledger
};

SweepPoint run_point(const Options& opt, const Shape& input_shape,
                     const serve::NetworkFactory& factory,
                     const std::vector<Tensor>& images, double rel,
                     double qps, double seconds, double per_batch_ms) {
  SweepPoint point;
  point.rel = rel;
  point.qps = qps;
  const bool probe = opt.http_port >= 0;

  // The serve.* registry series are process-wide: zero them so this point's
  // /metrics describes this point's engine alone.
  if (probe) obs::Registry::instance().reset_values();
  EngineHarness h = make_engine(opt, input_shape, factory, /*with_faults=*/true,
                                per_batch_ms, opt.http_port);
  h.engine->start();
  const int port = h.engine->http_port();
  if (probe) {
    std::printf("[load] live endpoint on 127.0.0.1:%d (/metrics /healthz "
                "/flight)\n",
                port);
    std::fflush(stdout);
  }

  // Warm every worker replica before the measured run: first-batch replica
  // construction would otherwise back the queue up and escalate brownout
  // even far below the knee.
  {
    std::vector<serve::ResponseFuture> warm;
    for (std::int64_t k = 0; k < 2 * opt.workers * 8; ++k) {
      Tensor image = images[static_cast<std::size_t>(k) % images.size()];
      serve::SubmitOptions options;
      options.deadline = std::chrono::milliseconds(0);  // no deadline
      serve::SubmitResult r = h.engine->submit(std::move(image), options);
      if (r.accepted) warm.push_back(std::move(r.future));
    }
    for (const serve::ResponseFuture& f : warm) f.get();
  }
  // Ledger snapshot after warmup: the cross-check against the generator's
  // report compares deltas so warmup traffic does not skew it.
  const serve::ServeStats pre = h.engine->stats();

  serve::LoadGenConfig lg;
  lg.qps = qps;
  lg.duration = std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000.0));
  lg.interactive_fraction = 0.8;
  lg.interactive_deadline = {std::chrono::milliseconds(40),
                             std::chrono::milliseconds(80)};
  lg.batch_deadline = {std::chrono::milliseconds(200),
                       std::chrono::milliseconds(400)};
  lg.collectors = 2;
  lg.seed = 0x10AD + static_cast<std::uint64_t>(rel * 1000.0);
  lg.images = images;
  serve::LoadGen gen(lg);
  // One live probe from mid-point: /healthz must answer while the engine is
  // under load (200 healthy or 503 with the breaker open — both are correct
  // answers; silence is the failure).
  std::future<int> healthz;
  if (probe) {
    healthz = std::async(std::launch::async, [port, seconds] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2.0));
      const testutil::HttpResult health = testutil::http_request(port, "/healthz");
      return health.ok ? health.status : 0;
    });
  }
  point.report = gen.run(*h.engine);
  if (healthz.valid()) point.healthz_status = healthz.get();

  // run() returns only after every accepted future resolved, so the engine
  // should be idle: an empty queue here is the clean-drain evidence.
  Timer drain;
  while (h.engine->queue_depth() > 0 && drain.seconds() < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  point.drained = h.engine->queue_depth() == 0;
  point.stats = h.engine->stats();
  if (probe) {
    // Quiescent self-scrape: nothing is in flight or being submitted, so
    // /metrics must agree exactly with the engine's own ledger.
    const testutil::HttpResult scrape = testutil::http_request(port, "/metrics");
    if (!scrape.ok || scrape.status != 200) {
      std::printf("FAIL: /metrics scrape failed (transport %s, status %d)\n",
                  scrape.ok ? "ok" : "error", scrape.status);
    }
    point.metrics_conserved = scrape.ok && scrape.status == 200 &&
                              check_conservation(scrape.body, point.stats);
  }
  point.brownout_deepest = h.engine->governor().deepest_load_level();
  point.breaker_trips = h.engine->governor().trips();
  for (const serve::Priority p :
       {serve::Priority::kInteractive, serve::Priority::kBatch}) {
    point.queue_peak[static_cast<std::size_t>(p)] = h.engine->lane_peak_depth(p);
  }
  if (h.faults_fired != nullptr) point.faults_fired = h.faults_fired->load();
  h.engine->stop();

  point.p50 = obs::histogram_quantile(point.report.latency, 0.50);
  point.p95 = obs::histogram_quantile(point.report.latency, 0.95);
  point.p99 = obs::histogram_quantile(point.report.latency, 0.99);
  point.max_lag_ms = point.report.max_submit_lag_ms;
  point.conserved =
      point.report.conserved() && engine_conserved(point.stats) &&
      point.report.submitted() == point.stats.submitted - pre.submitted;
  return point;
}

struct AccuracyRow {
  std::int64_t t = 0;
  double ladder_acc = 0.0;       // T=3-converted net run at this T
  double reconverted_acc = 0.0;  // net converted specifically for this T
};

std::vector<AccuracyRow> run_accuracy(const bench::BenchData& data,
                                      const bench::BenchSetup& setup,
                                      dnn::Sequential& model,
                                      const core::ActivationProfile& profile) {
  std::printf("\n== Accuracy vs T (the degradation ladder's cost) ==\n");
  core::ConversionConfig cc3;
  cc3.time_steps = 3;
  auto ladder_net = core::convert(model, profile, cc3, nullptr);
  std::vector<AccuracyRow> rows;
  Table table({"T", "Ladder accuracy %", "Reconverted accuracy %"});
  for (const std::int64_t t : {3LL, 2LL, 1LL}) {
    AccuracyRow row;
    row.t = t;
    // What the governor does at runtime: same weights/thresholds (converted
    // for T=3), just fewer steps.
    ladder_net->set_time_steps(t);
    ladder_net->reset_state();
    row.ladder_acc = snn::evaluate_snn(*ladder_net, data.test, setup.batch_size);
    // The fair baseline: a conversion tuned for this T.
    core::ConversionConfig cc;
    cc.time_steps = t;
    auto tuned = core::convert(model, profile, cc, nullptr);
    row.reconverted_acc = snn::evaluate_snn(*tuned, data.test, setup.batch_size);
    table.add_row({std::to_string(t), Table::fmt(100.0 * row.ladder_acc),
                   Table::fmt(100.0 * row.reconverted_acc)});
    std::printf("[load] T=%lld ladder %.2f%%  reconverted %.2f%%\n",
                static_cast<long long>(t), 100.0 * row.ladder_acc,
                100.0 * row.reconverted_acc);
    rows.push_back(row);
  }
  table.print("Accuracy vs T");
  bench::write_csv(table, "load_accuracy.csv");
  return rows;
}

struct OverheadResult {
  double p50_off = 0.0, p50_on = 0.0;
  double p99_off = 0.0, p99_on = 0.0;
  double p99_ratio = 0.0;
  std::int64_t scrapes = 0;
  double seconds_per_leg = 0.0;
  bool passed = false;
};

/// The observability cost gate: identical clean load (no injected faults)
/// with the live endpoint off vs on — the "on" legs add a 20 Hz background
/// /metrics scraper, far beyond any real Prometheus interval (>= 1 s), so
/// they are a worst case. The stage-timing record and serve.* instruments
/// are always on in both modes (engine contract); what this gate prices is
/// the endpoint + scrape path itself.
///
/// Measurement discipline (what keeps the gate honest instead of flaky):
/// the driver submits one micro-batch-sized wave, drains it, then sleeps as
/// long as the wave took (50% duty cycle). That leaves deliberate idle
/// headroom on every machine — including single-core CI runners — so a p99
/// delta reflects the scrape path interrupting real work, not two saturated
/// threads trading a starved core. Legs run interleaved (off, on, on, off)
/// with the first waves discarded as warmup, and each mode scores its best
/// leg, cancelling machine-load drift across the run. Percentiles are over
/// exact samples: a bucketed histogram cannot resolve a 5% difference.
OverheadResult run_overhead(const Options& opt, const Shape& input_shape,
                            const serve::NetworkFactory& factory,
                            const std::vector<Tensor>& images) {
  const double leg_seconds = std::max(opt.seconds / 2.0, 2.0);
  std::printf("\n== Observability overhead: endpoint on vs off, "
              "4 legs x %.1fs ==\n",
              leg_seconds);

  struct Leg {
    double p50 = 0.0;
    double p99 = 0.0;
    std::int64_t scrapes = 0;
  };
  const auto measure = [&](bool endpoint) {
    EngineHarness h = make_engine(opt, input_shape, factory,
                                  /*with_faults=*/false, 0.0, endpoint ? 0 : -1);
    serve::ServeEngine& engine = *h.engine;
    engine.start();

    std::atomic<bool> stop_scraper{false};
    std::atomic<std::int64_t> scrape_count{0};
    std::thread scraper;
    if (endpoint) {
      const int port = engine.http_port();
      scraper = std::thread([&stop_scraper, &scrape_count, port] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          if (testutil::http_request(port, "/metrics").ok) {
            scrape_count.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }

    std::vector<double> latencies;
    Timer wall;
    std::size_t image_index = 0;
    std::int64_t wave_index = 0;
    constexpr std::int64_t kWave = 8;      // one micro-batch per wave
    constexpr std::int64_t kWarmupWaves = 2;
    while (wall.seconds() < leg_seconds) {
      Timer wave_timer;
      std::vector<serve::ResponseFuture> futures;
      futures.reserve(kWave);
      for (std::int64_t k = 0; k < kWave; ++k) {
        Tensor image = images[image_index];
        image_index = (image_index + 1) % images.size();
        serve::SubmitOptions options;
        options.deadline = std::chrono::milliseconds(0);  // no deadline
        serve::SubmitResult submitted = engine.submit(std::move(image), options);
        if (submitted.accepted) futures.push_back(std::move(submitted.future));
      }
      for (const serve::ResponseFuture& future : futures) {
        const serve::InferResponse response = future.get();
        if (serve::is_success(response.status) &&
            wave_index >= kWarmupWaves) {
          latencies.push_back(response.total_ms);
        }
      }
      ++wave_index;
      // 50% duty cycle: idle as long as the wave was busy.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(wave_timer.seconds(), 1.0)));
    }
    if (scraper.joinable()) {
      stop_scraper.store(true, std::memory_order_release);
      scraper.join();
    }
    engine.stop();
    Leg leg;
    leg.scrapes = scrape_count.load();
    std::sort(latencies.begin(), latencies.end());
    leg.p50 = bench::percentile(latencies, 0.50);
    leg.p99 = bench::percentile(latencies, 0.99);
    return leg;
  };

  OverheadResult result;
  result.seconds_per_leg = leg_seconds;
  Leg best_off, best_on;
  bool first_off = true, first_on = true;
  for (const bool endpoint : {false, true, true, false}) {
    const Leg leg = measure(endpoint);
    result.scrapes += leg.scrapes;
    Leg& best = endpoint ? best_on : best_off;
    bool& first = endpoint ? first_on : first_off;
    if (first || leg.p99 < best.p99) {
      best = leg;
      first = false;
    }
    std::printf("[load] overhead leg: endpoint %s, p50 %.3f ms, "
                "p99 %.3f ms\n",
                endpoint ? "on" : "off", leg.p50, leg.p99);
  }
  result.p50_off = best_off.p50;
  result.p50_on = best_on.p50;
  result.p99_off = best_off.p99;
  result.p99_on = best_on.p99;
  result.p99_ratio =
      result.p99_off > 0.0 ? result.p99_on / result.p99_off : 0.0;
  // Gate: < 5% at the tail. The 0.5 ms absolute floor absorbs scheduler
  // noise when per-request latency is small enough that 5% is sub-jitter.
  result.passed = result.p99_on <= result.p99_off * 1.05 + 0.5;

  Table table({"Metric", "Endpoint off", "Endpoint on"});
  table.add_row({"latency p50 ms", Table::fmt(result.p50_off),
                 Table::fmt(result.p50_on)});
  table.add_row({"latency p99 ms", Table::fmt(result.p99_off),
                 Table::fmt(result.p99_on)});
  table.add_row({"/metrics scrapes", "0", std::to_string(result.scrapes)});
  table.print("Observability overhead");
  bench::write_csv(table, "load_overhead.csv");
  if (result.passed) {
    std::printf("overhead PASS: p99 %.3f -> %.3f ms (x%.3f) with the live "
                "endpoint + 20 Hz scraper\n",
                result.p99_off, result.p99_on, result.p99_ratio);
  } else {
    std::printf("FAIL: observability overhead p99 %.3f -> %.3f ms (x%.3f) "
                "exceeds the 5%% gate\n",
                result.p99_off, result.p99_on, result.p99_ratio);
  }
  return result;
}

struct Gates {
  bool conservation = true;
  bool zero_watchdog = true;
  bool queue_peak_bounded = true;
  bool sub_knee_interactive = true;   // evaluated when a rel <= 0.75 point exists
  bool p99_bounded = true;            // evaluated when a rel >= 2 point exists
  bool priority_order = true;         // evaluated when a rel >= 2 point exists
  bool goodput_retained = true;       // evaluated with >= 2 points
  bool clean_drain = true;
  bool fault_completion = true;       // evaluated with --faults > 0
  bool healthz_live = true;           // evaluated with --http
  bool metrics_conserved = true;      // evaluated with --http
  bool overhead = true;               // evaluated with --overhead

  bool passed() const {
    return conservation && zero_watchdog && queue_peak_bounded &&
           sub_knee_interactive && p99_bounded && priority_order &&
           goodput_retained && clean_drain && fault_completion &&
           healthz_live && metrics_conserved && overhead;
  }
};

/// Share of accepted in-deadline requests (fulfilled or failed, not shed)
/// that completed without an error.
double completion_rate(const serve::LoadReport& r) {
  const std::int64_t in_deadline = r.fulfilled() + r.failed();
  return in_deadline > 0 ? static_cast<double>(r.fulfilled()) /
                               static_cast<double>(in_deadline)
                         : 1.0;
}

Gates evaluate_gates(const Options& opt, const std::vector<SweepPoint>& points,
                     const OverheadResult* overhead) {
  Gates gates;
  if (overhead != nullptr) gates.overhead = overhead->passed;
  const bool probed = opt.http_port >= 0;
  const SweepPoint* sub_knee = nullptr;   // deepest sub-knee point
  double best_at_or_below_knee = 0.0;
  for (const SweepPoint& p : points) {
    if (!p.conserved) {
      std::printf("FAIL: conservation violated at rel %.2f (%.0f qps)\n",
                  p.rel, p.qps);
      gates.conservation = false;
    }
    if (p.stats.timeouts != 0) {
      std::printf("FAIL: %lld watchdog termination(s) at rel %.2f — "
                  "shedding must act before the watchdog\n",
                  static_cast<long long>(p.stats.timeouts), p.rel);
      gates.zero_watchdog = false;
    }
    for (const serve::Priority lane :
         {serve::Priority::kInteractive, serve::Priority::kBatch}) {
      const std::int64_t peak = p.queue_peak[static_cast<std::size_t>(lane)];
      if (peak > kLaneCapacity) {
        std::printf("FAIL: %s lane peak depth %lld exceeded capacity %lld at "
                    "rel %.2f\n",
                    serve::to_string(lane), static_cast<long long>(peak),
                    static_cast<long long>(kLaneCapacity), p.rel);
        gates.queue_peak_bounded = false;
      }
    }
    if (opt.fault_rate > 0.0 && p.rel <= 1.0 + 1e-9 &&
        completion_rate(p.report) < 0.99) {
      std::printf("FAIL: completion rate %.4f < 0.99 under %.1f%% injected "
                  "faults at rel %.2f\n",
                  completion_rate(p.report), 100.0 * opt.fault_rate, p.rel);
      gates.fault_completion = false;
    }
    if (probed && p.healthz_status != 200 && p.healthz_status != 503) {
      std::printf("FAIL: mid-point /healthz probe got status %d (expected "
                  "200 or 503) at rel %.2f\n",
                  p.healthz_status, p.rel);
      gates.healthz_live = false;
    }
    if (probed && !p.metrics_conserved) {
      std::printf("FAIL: quiescent /metrics scrape disagrees with the engine "
                  "ledger at rel %.2f\n",
                  p.rel);
      gates.metrics_conserved = false;
    }
    if (p.rel <= 0.75 && (sub_knee == nullptr || p.rel > sub_knee->rel)) {
      sub_knee = &p;
    }
    if (p.rel <= 1.0 + 1e-9) {
      best_at_or_below_knee =
          std::max(best_at_or_below_knee, p.report.goodput_qps());
    }
  }
  if (sub_knee != nullptr) {
    const serve::ClassLoadStats& interactive =
        sub_knee->report.cls(serve::Priority::kInteractive);
    const double rate =
        interactive.submitted > 0
            ? static_cast<double>(interactive.fulfilled()) /
                  static_cast<double>(interactive.submitted)
            : 1.0;
    if (rate < 0.99) {
      std::printf("FAIL: sub-knee interactive fulfillment %.4f < 0.99 "
                  "(rel %.2f)\n",
                  rate, sub_knee->rel);
      gates.sub_knee_interactive = false;
    }
  }
  for (const SweepPoint& p : points) {
    if (p.rel < 2.0 - 1e-9) continue;
    if (sub_knee != nullptr && sub_knee->p99 > 0.0 &&
        p.p99 > 2.0 * sub_knee->p99 + 5.0) {
      std::printf("FAIL: fulfilled p99 %.2f ms at rel %.2f exceeds 2x the "
                  "sub-knee p99 %.2f ms\n",
                  p.p99, p.rel, sub_knee->p99);
      gates.p99_bounded = false;
    }
    if (p.report.goodput_qps(serve::Priority::kInteractive) <=
        p.report.goodput_qps(serve::Priority::kBatch)) {
      std::printf("FAIL: priority inversion at rel %.2f — interactive "
                  "goodput %.1f qps <= batch %.1f qps\n",
                  p.rel, p.report.goodput_qps(serve::Priority::kInteractive),
                  p.report.goodput_qps(serve::Priority::kBatch));
      gates.priority_order = false;
    }
    if (best_at_or_below_knee > 0.0 &&
        p.report.goodput_qps() < 0.8 * best_at_or_below_knee) {
      std::printf("FAIL: goodput collapse at rel %.2f — %.1f qps < 80%% of "
                  "the %.1f qps sub-knee plateau\n",
                  p.rel, p.report.goodput_qps(), best_at_or_below_knee);
      gates.goodput_retained = false;
    }
  }
  if (!points.empty() && !points.back().drained) {
    std::printf("FAIL: queue did not drain after the rel %.2f overload run\n",
                points.back().rel);
    gates.clean_drain = false;
  }
  return gates;
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

void write_json(const std::string& path, const Options& opt,
                bench::Scale scale, double capacity_qps,
                const std::vector<SweepPoint>& points,
                const std::vector<AccuracyRow>& accuracy,
                const OverheadResult* overhead, const Gates& gates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n  \"bench\": \"load\",\n  \"scale\": \"%s\",\n"
               "  \"loop\": \"open\",\n  \"workers\": %lld,\n"
               "  \"knee_qps\": %.1f,\n"
               "  \"faults\": {\"fault_rate\": %.4f, \"stall_rate\": %.4f, "
               "\"stall_ms\": %lld, \"slow_replica_rate\": %.4f, "
               "\"slow_replica_factor\": %.2f},\n"
               "  \"points\": [",
               bench::scale_name(scale), static_cast<long long>(opt.workers),
               capacity_qps, opt.fault_rate, opt.stall_rate,
               static_cast<long long>(opt.stall_ms), opt.slow_replica_rate,
               opt.slow_replica_factor);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const serve::LoadReport& r = p.report;
    const serve::ClassLoadStats& ia = r.cls(serve::Priority::kInteractive);
    const serve::ClassLoadStats& ba = r.cls(serve::Priority::kBatch);
    std::fprintf(
        f,
        "%s\n    {\"rel\": %.2f, \"qps\": %.1f, \"submitted\": %lld, "
        "\"accepted\": %lld, \"rejected\": %lld, \"shed_admission\": %lld,\n"
        "     \"fulfilled\": %lld, \"shed\": %lld, \"failed\": %lld, "
        "\"goodput_qps\": %.1f, \"shed_rate\": %.4f,\n"
        "     \"interactive\": {\"submitted\": %lld, \"fulfilled\": %lld, "
        "\"goodput_qps\": %.1f},\n"
        "     \"batch\": {\"submitted\": %lld, \"fulfilled\": %lld, "
        "\"goodput_qps\": %.1f},\n"
        "     \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f},\n"
        "     \"max_submit_lag_ms\": %.2f, \"watchdog_timeouts\": %lld, "
        "\"brownout_deepest\": %lld, \"breaker_trips\": %lld,\n"
        "     \"faults_fired\": %lld, \"retries\": %lld, "
        "\"completion_rate\": %.6f,\n"
        "     \"queue_peak\": {\"interactive\": %lld, \"batch\": %lld}, "
        "\"healthz_status\": %d, \"metrics_conserved\": %s,\n"
        "     \"conserved\": %s, \"drained\": %s}",
        i == 0 ? "" : ",", p.rel, p.qps,
        static_cast<long long>(r.submitted()),
        static_cast<long long>(ia.accepted + ba.accepted),
        static_cast<long long>(ia.rejected + ba.rejected),
        static_cast<long long>(ia.shed_admission + ba.shed_admission),
        static_cast<long long>(r.fulfilled()),
        static_cast<long long>(r.shed()), static_cast<long long>(r.failed()),
        r.goodput_qps(), r.shed_rate(), static_cast<long long>(ia.submitted),
        static_cast<long long>(ia.fulfilled()),
        r.goodput_qps(serve::Priority::kInteractive),
        static_cast<long long>(ba.submitted),
        static_cast<long long>(ba.fulfilled()),
        r.goodput_qps(serve::Priority::kBatch), p.p50, p.p95, p.p99,
        p.max_lag_ms, static_cast<long long>(p.stats.timeouts),
        static_cast<long long>(p.brownout_deepest),
        static_cast<long long>(p.breaker_trips),
        static_cast<long long>(p.faults_fired),
        static_cast<long long>(p.stats.retries), completion_rate(r),
        static_cast<long long>(p.queue_peak[0]),
        static_cast<long long>(p.queue_peak[1]), p.healthz_status,
        opt.http_port >= 0 ? json_bool(p.metrics_conserved) : "null",
        json_bool(p.conserved), json_bool(p.drained));
  }
  std::fprintf(f, "\n  ]");
  if (overhead != nullptr) {
    std::fprintf(
        f,
        ",\n  \"overhead\": {\n"
        "    \"seconds_per_leg\": %.3f,\n    \"scrapes\": %lld,\n"
        "    \"p50_ms\": {\"off\": %.3f, \"on\": %.3f},\n"
        "    \"p99_ms\": {\"off\": %.3f, \"on\": %.3f},\n"
        "    \"p99_ratio\": %.4f\n  }",
        overhead->seconds_per_leg, static_cast<long long>(overhead->scrapes),
        overhead->p50_off, overhead->p50_on, overhead->p99_off,
        overhead->p99_on, overhead->p99_ratio);
  }
  if (!accuracy.empty()) {
    std::fprintf(f, ",\n  \"accuracy_vs_t\": [");
    for (std::size_t i = 0; i < accuracy.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"T\": %lld, \"ladder_acc\": %.4f, "
                   "\"reconverted_acc\": %.4f}",
                   i == 0 ? "" : ",", static_cast<long long>(accuracy[i].t),
                   accuracy[i].ladder_acc, accuracy[i].reconverted_acc);
    }
    std::fprintf(f, "\n  ]");
  }
  std::fprintf(
      f,
      ",\n  \"gates\": {\"conservation\": %s, \"zero_watchdog\": %s, "
      "\"queue_peak_bounded\": %s, \"sub_knee_interactive\": %s, "
      "\"p99_bounded\": %s, \"priority_order\": %s, "
      "\"goodput_retained\": %s, \"clean_drain\": %s, "
      "\"fault_completion\": %s, \"healthz_live\": %s, "
      "\"metrics_conserved\": %s, \"overhead\": %s},\n"
      "  \"passed\": %s\n}\n",
      json_bool(gates.conservation), json_bool(gates.zero_watchdog),
      json_bool(gates.queue_peak_bounded),
      json_bool(gates.sub_knee_interactive), json_bool(gates.p99_bounded),
      json_bool(gates.priority_order), json_bool(gates.goodput_retained),
      json_bool(gates.clean_drain), json_bool(gates.fault_completion),
      json_bool(gates.healthz_live), json_bool(gates.metrics_conserved),
      json_bool(gates.overhead), json_bool(gates.passed()));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt = parse_options(argc, argv);
    const bench::Scale scale = bench::read_scale();
    if (opt.seconds <= 0.0) {
      opt.seconds = scale == bench::Scale::kQuick
                        ? 1.5
                        : (scale == bench::Scale::kFull ? 8.0 : 4.0);
    }
    std::printf("== Serving load bench (scale: %s) ==\n",
                bench::scale_name(scale));

    const core::Architecture arch = core::Architecture::kVgg11;
    const bench::BenchSetup setup = bench::setup_for(scale);
    const bench::BenchData data = bench::make_data(10, setup);
    auto model = bench::trained_dnn(arch, 10, setup, data);
    const core::ActivationProfile profile =
        core::collect_activations(*model, data.train);
    // Each worker replica is a fresh conversion from the shared trained
    // DNN: same weights, private runtime state.
    core::ConversionConfig cc;
    cc.time_steps = 3;
    const serve::NetworkFactory factory = [&model, &profile, cc] {
      return core::convert(*model, profile, cc, nullptr);
    };

    const Tensor& test_images = data.test.images;
    const std::int64_t samples = std::min<std::int64_t>(64, data.test.size());
    const std::int64_t sample_numel = test_images.numel() / data.test.size();
    const Shape input_shape(test_images.shape().begin() + 1,
                            test_images.shape().end());
    std::vector<Tensor> images;
    images.reserve(static_cast<std::size_t>(samples));
    for (std::int64_t s = 0; s < samples; ++s) {
      Tensor image(input_shape);
      std::memcpy(image.data(), test_images.data() + s * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      images.push_back(std::move(image));
    }

    double knee_qps = 0.0;
    std::vector<SweepPoint> points;
    if (opt.sweep) {
      knee_qps = opt.base_qps;
      if (knee_qps <= 0.0) {
        const double calib_seconds = scale == bench::Scale::kQuick ? 1.0 : 2.0;
        knee_qps = calibrate_capacity_qps(opt, input_shape, factory, images,
                                          calib_seconds);
        std::printf("[load] calibrated service capacity: %.1f qps "
                    "(%lld workers)\n",
                    knee_qps, static_cast<long long>(opt.workers));
      } else {
        std::printf("[load] using --base-qps %.1f as the knee\n", knee_qps);
      }
      if (knee_qps <= 0.0) {
        throw std::runtime_error("capacity calibration failed");
      }
      // The per-batch service time the slow-replica delay scales against.
      const double per_batch_ms = 8.0 * 1000.0 / knee_qps;

      Table table({"rel", "offered qps", "goodput", "interactive", "batch",
                   "shed %", "p50 ms", "p99 ms", "timeouts", "brownout",
                   "faults", "retries"});
      for (const double rel : opt.rel) {
        const double qps = rel * knee_qps;
        std::printf("[load] rel %.2f: %.1f qps for %.1fs...\n", rel, qps,
                    opt.seconds);
        std::fflush(stdout);
        SweepPoint p = run_point(opt, input_shape, factory, images, rel, qps,
                                 opt.seconds, per_batch_ms);
        table.add_row(
            {Table::fmt(p.rel), Table::fmt(p.qps, 1),
             Table::fmt(p.report.goodput_qps(), 1),
             Table::fmt(p.report.goodput_qps(serve::Priority::kInteractive), 1),
             Table::fmt(p.report.goodput_qps(serve::Priority::kBatch), 1),
             Table::fmt(100.0 * p.report.shed_rate(), 2), Table::fmt(p.p50, 2),
             Table::fmt(p.p99, 2), std::to_string(p.stats.timeouts),
             std::to_string(p.brownout_deepest),
             std::to_string(p.faults_fired), std::to_string(p.stats.retries)});
        points.push_back(std::move(p));
      }
      table.print("Open-loop QPS sweep");
      bench::write_csv(table, "load_sweep.csv");
    }

    std::vector<AccuracyRow> accuracy;
    if (opt.accuracy) accuracy = run_accuracy(data, setup, *model, profile);
    OverheadResult overhead;
    if (opt.overhead) {
      overhead = run_overhead(opt, input_shape, factory, images);
    }

    const OverheadResult* measured = opt.overhead ? &overhead : nullptr;
    const Gates gates = evaluate_gates(opt, points, measured);
    if (!opt.json_path.empty()) {
      write_json(opt.json_path, opt, scale, knee_qps, points, accuracy,
                 measured, gates);
    }
    if (!gates.passed()) return 1;
    if (opt.sweep) {
      std::printf("load PASS: knee %.1f qps; overload controls held across "
                  "%zu sweep points\n",
                  knee_qps, points.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_load: %s\n", e.what());
    return 1;
  }
}
