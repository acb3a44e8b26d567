// The serving benchmark: one workload per run, driven from outside the
// engine through public calls only.
//
//   perfbench prepare --workload W --work-dir D
//       Train the workload's DNN once into D/models (skipped when cached).
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --work-dir D
//       Set up (collect -> convert -> pack -> deploy -> start + warm-up,
//       repeated kSetupReps times), drive the seeded load for S seconds,
//       compute offline references for the seeded eval pool, check the
//       answers and the request ledger, and print the metrics. The last line
//       of stdout is the JSON result; the exit code is 1 when any check fails.
//
// See perfbench/README.md for the workloads and what each metric means.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/artifact/artifact.h"
#include "src/artifact/model_registry.h"
#include "src/core/activation_collector.h"
#include "src/core/converter.h"
#include "src/core/pipeline.h"
#include "src/data/dataset.h"
#include "src/data/synthetic_cifar.h"
#include "src/dnn/trainer.h"
#include "src/harness.h"
#include "src/serve/engine.h"
#include "src/tracer.h"
#include "src/util/mutex.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

using namespace ullsnn;
namespace fs = std::filesystem;
using perfbench::Metric;
using serve::Clock;

namespace {

// ---- fixed benchmark settings ----

constexpr std::int64_t kTrainSize = 1024;   // default-scale bench training set
constexpr std::int64_t kTrainEpochs = 20;
constexpr std::uint64_t kModelSeed = 3;     // weights init; the model is a fixed input
constexpr std::int64_t kPoolSize = 2048;    // seeded, labelled eval pool
constexpr std::int64_t kSetupReps = 3;      // setup_s is the median of these
constexpr std::int64_t kTimeSteps = 3;
/// Generator-lag bounds (open loop): a run whose submitter fell further
/// behind its schedule than this measured a different load and is invalid.
/// p99: half the shortest deadline (40 ms); max: the longest deadline.
/// A bare sleep_until loop on a shared VM already shows multi-ms stalls.
constexpr double kMaxLagP99Ms = 20.0;
constexpr double kMaxLagMs = 400.0;
/// Largest share of answers whose top-1 may differ from the offline forward
/// at the same T. Not 0: a linear layer picks its sparse (fp32) or dense
/// (fp32 or int8) kernel from the density of the whole batch, so an answer
/// depends slightly on what it was batched with; a wrong model or a wrong T
/// differs on a large share (about 1 - accuracy).
constexpr double kMaxReferenceMismatch = 0.03;
/// The 95 % Wilson half-width on accuracy must be tighter than this share of
/// the accuracy (the accuracy bound in BENCHMARK.json).
constexpr double kAccuracyBound = 0.1;
/// Rates are the median over this many equal-time windows of the run, and
/// latency percentiles the median over at most this many chunks of
/// successes (in send order) of at least kMinChunk each, so that one stalled
/// stretch of a run moves one window, not the result. A chunk of 1000 keeps
/// 10 samples beyond its p99 (the percentile rule).
constexpr std::int64_t kWindows = 5;
constexpr std::int64_t kMinChunk = 1000;

struct Workload {
  const char* name;
  core::Architecture arch;
  float width;
  Precision precision;
  bool open_loop;
  double qps;                   // open loop: fixed offered rate
  double interactive_fraction;  // open loop
  std::int64_t depth;           // closed loop: requests kept outstanding
};

const Workload kWorkloads[] = {
    {"interactive-light", core::Architecture::kVgg11, 0.125F, Precision::kFp32, true, 200.0,
     1.0, 0},
    {"mixed-overload", core::Architecture::kVgg11, 0.125F, Precision::kInt8, true, 1600.0, 0.8,
     0},
    {"batch-scoring", core::Architecture::kResNet20, 0.25F, Precision::kFp32, false, 0.0, 0.0,
     32},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// The one engine configuration every workload is served with.
serve::ServeConfig engine_config() {
  serve::ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch_queue_capacity = 64;
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(250);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 2;
  config.retry_backoff = std::chrono::microseconds(50);
  config.input_shape = {3, 32, 32};
  return config;
}

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench prepare|run --workload W ...");
  Options opt;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (opt.command != "prepare" && opt.command != "run") {
    throw std::invalid_argument("unknown command: " + opt.command);
  }
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  find_workload(opt.workload);
  return opt;
}

// ---- model inputs ----

struct TrainSet {
  data::LabeledImages train;
  data::ChannelStats stats;
  data::SyntheticCifarSpec spec;
};

TrainSet make_train_set() {
  TrainSet t;
  data::SyntheticCifar gen(t.spec);
  t.train = gen.generate(kTrainSize, 1);
  t.stats = data::standardize(t.train);
  return t;
}

std::string model_path(const Options& opt, const Workload& w) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s_w%.3f_n%lld_e%lld_s%llu.ckpt", core::to_string(w.arch),
                static_cast<double>(w.width), static_cast<long long>(kTrainSize),
                static_cast<long long>(kTrainEpochs),
                static_cast<unsigned long long>(kModelSeed));
  std::string key = buf;
  std::replace(key.begin(), key.end(), '/', '_');
  std::replace(key.begin(), key.end(), ' ', '_');
  return (fs::path(opt.work_dir) / "models" / key).string();
}

std::unique_ptr<dnn::Sequential> fresh_model(const Workload& w) {
  dnn::ModelConfig mc;
  mc.width = w.width;
  mc.num_classes = 10;
  Rng rng(kModelSeed);
  return core::build_model(w.arch, mc, rng);
}

/// Load the cached DNN; false when the cache has no usable entry.
bool load_model(dnn::Sequential& model, const std::string& path) {
  if (!fs::exists(path)) return false;
  const TensorDict dict = load_tensors(path);
  std::vector<dnn::Param*> params = model.params();
  if (dict.size() != params.size()) return false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto it = dict.find("p" + std::to_string(i));
    if (it == dict.end() || it->second.shape() != params[i]->value.shape()) return false;
    params[i]->value = it->second;
  }
  return true;
}

void prepare_model(const Options& opt, const Workload& w, const TrainSet& t) {
  const std::string path = model_path(opt, w);
  auto model = fresh_model(w);
  if (load_model(*model, path)) {
    std::printf("[perfbench] model cached: %s\n", path.c_str());
    return;
  }
  std::printf("[perfbench] training %s (width %.3f, %lld images, %lld epochs)...\n",
              core::to_string(w.arch), static_cast<double>(w.width),
              static_cast<long long>(kTrainSize), static_cast<long long>(kTrainEpochs));
  std::fflush(stdout);
  Timer timer;
  dnn::TrainConfig tc;
  tc.epochs = kTrainEpochs;
  tc.batch_size = 32;
  tc.augment = false;
  dnn::DnnTrainer trainer(*model, tc);
  trainer.fit(t.train);
  TensorDict dict;
  std::int64_t i = 0;
  for (const dnn::Param* p : model->params()) dict["p" + std::to_string(i++)] = p->value;
  fs::create_directories(fs::path(path).parent_path());
  const std::string tmp = path + ".tmp";
  save_tensors(dict, tmp);
  fs::rename(tmp, path);
  std::printf("[perfbench] trained in %.1f s -> %s\n", timer.seconds(), path.c_str());
}

/// Seeded, labelled eval pool standardized with the training statistics.
data::LabeledImages make_pool(const TrainSet& t, std::uint64_t seed) {
  data::SyntheticCifar gen(t.spec);
  data::LabeledImages pool = gen.generate(kPoolSize, 0x9E3779B9ULL + seed * 2654435761ULL);
  data::apply_standardize(pool, t.stats);
  return pool;
}

Tensor pool_image(const data::LabeledImages& pool, std::int64_t index) {
  const std::int64_t numel = pool.images.numel() / pool.size();
  return Tensor::borrow({3, 32, 32}, pool.images.data() + index * numel);
}

// ---- setup ----

struct SetupTimes {
  double collect_s = 0.0, convert_s = 0.0, pack_s = 0.0, deploy_s = 0.0, start_s = 0.0;
  double total() const { return collect_s + convert_s + pack_s + deploy_s + start_s; }
};

struct Served {
  std::shared_ptr<artifact::ModelRegistry> registry;
  std::unique_ptr<serve::ServeEngine> engine;
};

/// Warm every replica: a few full batches of no-deadline requests.
void warm_up(serve::ServeEngine& engine, const data::LabeledImages& pool) {
  std::vector<serve::ResponseFuture> futures;
  for (std::int64_t k = 0; k < 32; ++k) {
    serve::SubmitOptions o;
    o.deadline = std::chrono::milliseconds(0);
    serve::SubmitResult r = engine.submit(pool_image(pool, k % pool.size()), o);
    if (!r.accepted) throw std::runtime_error("warm-up request refused: " + r.response.reason);
    futures.push_back(std::move(r.future));
  }
  for (const serve::ResponseFuture& f : futures) {
    if (!serve::is_success(f.get().status)) throw std::runtime_error("warm-up request failed");
  }
}

/// Trained DNN -> warm engine, each stage timed: Algorithm 1 (collect +
/// convert), pack, deploy with canary, engine start + warm-up.
Served set_up(dnn::Sequential& model, const TrainSet& t, const Workload& w,
              const std::string& artifact_path, const data::LabeledImages& pool,
              const serve::ServeConfig& config, SetupTimes& times) {
  Timer timer;
  const core::ActivationProfile profile = core::collect_activations(model, t.train);
  times.collect_s = timer.seconds();
  timer.reset();
  core::ConversionConfig cc;
  cc.time_steps = kTimeSteps;
  std::unique_ptr<snn::SnnNetwork> snn = core::convert(model, profile, cc);
  times.convert_s = timer.seconds();
  timer.reset();
  artifact::PackOptions po;
  po.input_shape = {3, 32, 32};
  po.precision = w.precision;
  artifact::pack_network(*snn, artifact_path, po);
  times.pack_s = timer.seconds();
  timer.reset();
  Served s;
  s.registry = std::make_shared<artifact::ModelRegistry>();
  s.registry->deploy(artifact_path);
  times.deploy_s = timer.seconds();
  timer.reset();
  s.engine = std::make_unique<serve::ServeEngine>(config, s.registry);
  s.engine->start();
  warm_up(*s.engine, pool);
  times.start_s = timer.seconds();
  return s;
}

// ---- references ----

/// T -> per-pool-image top-1 of the offline forward at that T.
using References = std::map<std::int64_t, std::vector<std::int64_t>>;

/// Offline make_network() forward over the whole pool at each T in `steps`.
References compute_references(const artifact::UllsnnArtifact& art,
                              const data::LabeledImages& pool,
                              const std::vector<std::int64_t>& steps) {
  References refs;
  std::unique_ptr<snn::SnnNetwork> net = art.make_network();
  const std::int64_t numel = pool.images.numel() / pool.size();
  constexpr std::int64_t kChunk = 64;
  for (const std::int64_t t : steps) {
    net->set_time_steps(t);
    std::vector<std::int64_t> top1(static_cast<std::size_t>(pool.size()));
    for (std::int64_t begin = 0; begin < pool.size(); begin += kChunk) {
      const std::int64_t n = std::min(kChunk, pool.size() - begin);
      Tensor batch({n, 3, 32, 32});
      std::memcpy(batch.data(), pool.images.data() + begin * numel,
                  static_cast<std::size_t>(n * numel) * sizeof(float));
      net->reset_state();
      const Tensor logits = net->forward(batch, /*train=*/false);
      const std::int64_t classes = logits.numel() / n;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* row = logits.data() + i * classes;
        top1[static_cast<std::size_t>(begin + i)] = std::max_element(row, row + classes) - row;
      }
    }
    refs[t] = std::move(top1);
  }
  return refs;
}

// ---- load drivers ----

struct Outcome {
  serve::ResponseStatus status = serve::ResponseStatus::kError;
  bool accepted = false;
  serve::Priority priority = serve::Priority::kInteractive;
  std::int64_t image = 0;
  std::int64_t id = -1;
  std::int64_t time_steps = 0;
  std::int64_t predicted = -1;
  double sent_s = 0.0;    // intended (open loop) or actual send time, from the run start
  double lag_ms = 0.0;    // submit call - intended send time (open loop)
  double total_ms = 0.0;  // engine: admission -> fulfillment
  double queue_ms = 0.0, batch_ms = 0.0, infer_ms = 0.0;
  double latency_ms() const { return lag_ms + total_ms; }
};

Outcome to_outcome(const serve::InferResponse& r, bool accepted, serve::Priority priority,
                   std::int64_t image, double sent_s, double lag_ms) {
  Outcome o;
  o.priority = priority;
  o.sent_s = sent_s;
  o.status = r.status;
  o.accepted = accepted;
  o.image = image;
  o.id = r.id;
  o.time_steps = r.time_steps;
  o.predicted = r.predicted;
  o.lag_ms = lag_ms;
  o.total_ms = r.total_ms;
  o.queue_ms = r.queue_ms;
  o.batch_ms = r.batch_ms;
  o.infer_ms = r.infer_ms;
  return o;
}

struct RunResult {
  std::vector<Outcome> outcomes;
  double window_s = 0.0;  // requests were sent in [0, window_s)
  serve::ServeStats delta;
};

/// Hand-off from the submitter thread to the collector thread.
class Pending {
 public:
  struct Item {
    serve::ResponseFuture future;
    serve::Priority priority = serve::Priority::kInteractive;
    std::int64_t image = 0;
    double sent_s = 0.0;
    double lag_ms = 0.0;
  };
  void push(Item item) {
    {
      MutexLock lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// False once closed and drained.
  bool pop(Item& out) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) cv_.wait(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::deque<Item> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Open loop: every request of the precomputed schedule is submitted at its
/// intended time whatever the engine's state; latency counts from that time.
RunResult run_open_loop(serve::ServeEngine& engine, const data::LabeledImages& pool,
                        const std::vector<perfbench::Arrival>& schedule, double seconds) {
  RunResult result;
  const serve::ServeStats before = engine.stats();
  Pending pending;
  std::vector<Outcome> refused;
  std::vector<Outcome> collected;
  collected.reserve(schedule.size());
  std::thread collector([&pending, &collected] {
    Pending::Item item;
    while (pending.pop(item)) {
      collected.push_back(to_outcome(item.future.get(), true, item.priority, item.image,
                                     item.sent_s, item.lag_ms));
    }
  });
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread submitter([&] {
    for (const perfbench::Arrival& a : schedule) {
      const Clock::time_point due = t0 + std::chrono::nanoseconds(a.at_ns);
      std::this_thread::sleep_until(due);
      const Clock::time_point call = Clock::now();
      serve::SubmitOptions o;
      o.priority = a.priority;
      o.absolute_deadline = due + std::chrono::milliseconds(a.deadline_ms);
      serve::SubmitResult r = engine.submit(pool_image(pool, a.image), o);
      const double lag = ms_since(due, call);
      const double sent_s = static_cast<double>(a.at_ns) / 1e9;
      if (r.accepted) {
        pending.push({std::move(r.future), a.priority, a.image, sent_s, lag});
      } else {
        refused.push_back(to_outcome(r.response, false, a.priority, a.image, sent_s, lag));
      }
    }
    pending.close();
  });
  submitter.join();
  collector.join();
  result.delta = perfbench::stats_delta(before, engine.stats());
  result.outcomes = std::move(collected);
  result.outcomes.insert(result.outcomes.end(), refused.begin(), refused.end());
  result.window_s = seconds;
  return result;
}

/// Closed loop: one caller keeps `depth` no-deadline batch requests
/// outstanding for `seconds`, then drains.
RunResult run_closed_loop(serve::ServeEngine& engine, const data::LabeledImages& pool,
                          std::int64_t depth, double seconds, std::uint64_t seed) {
  RunResult result;
  const serve::ServeStats before = engine.stats();
  Pending pending;
  Mutex slots_mu;
  CondVar slots_cv;
  std::int64_t outstanding = 0;  // guarded by slots_mu
  std::vector<Outcome> refused;
  std::vector<Outcome> collected;
  std::thread collector([&] {
    Pending::Item item;
    while (pending.pop(item)) {
      collected.push_back(
          to_outcome(item.future.get(), true, item.priority, item.image, item.sent_s, 0.0));
      {
        MutexLock lock(slots_mu);
        --outstanding;
      }
      slots_cv.notify_one();
    }
  });
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(seconds));
  std::thread submitter([&] {
    std::uint64_t pass = 0;
    std::vector<std::int64_t> order;
    std::size_t pos = 0;
    while (Clock::now() < end) {
      {
        MutexLock lock(slots_mu);
        while (outstanding >= depth) slots_cv.wait(slots_mu);
        ++outstanding;
      }
      if (pos == order.size()) {
        order = perfbench::shuffled_indices(pool.size(), seed * 0x100000001B3ULL + pass++);
        pos = 0;
      }
      const std::int64_t image = order[pos++];
      serve::SubmitOptions o;
      o.priority = serve::Priority::kBatch;
      o.deadline = std::chrono::milliseconds(0);  // no deadline: never shed
      const double sent_s = std::chrono::duration<double>(Clock::now() - t0).count();
      serve::SubmitResult r = engine.submit(pool_image(pool, image), o);
      if (r.accepted) {
        pending.push({std::move(r.future), o.priority, image, sent_s, 0.0});
      } else {
        refused.push_back(to_outcome(r.response, false, o.priority, image, sent_s, 0.0));
        MutexLock lock(slots_mu);
        --outstanding;
      }
    }
    pending.close();
  });
  submitter.join();
  collector.join();
  result.delta = perfbench::stats_delta(before, engine.stats());
  result.outcomes = std::move(collected);
  result.outcomes.insert(result.outcomes.end(), refused.begin(), refused.end());
  result.window_s = seconds;
  return result;
}

// ---- metrics ----

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// Everything measured about one run of the load, checks included.
struct Analysis {
  perfbench::Ledger ledger;
  std::vector<Metric> end_to_end;
  std::vector<Metric> serve_layer;  // serve.* and gen.*
  std::map<std::int64_t, double> infer_ms_by_id;
};

Analysis analyse(const RunResult& run, const Workload& w, const data::LabeledImages& pool,
                 const References& refs, Checks& checks) {
  Analysis a;
  std::vector<const Outcome*> by_send;
  for (const Outcome& o : run.outcomes) by_send.push_back(&o);
  std::stable_sort(by_send.begin(), by_send.end(),
                   [](const Outcome* x, const Outcome* y) { return x->sent_s < y->sent_s; });
  // Latency is the latency-sensitive class's: interactive requests when the
  // workload sends any, else all. Batch requests carry 200-400 ms deadlines
  // and strict priority parks them behind every interactive request, so
  // mixing them in puts p99 on the boundary between the two classes.
  const bool has_interactive =
      std::any_of(run.outcomes.begin(), run.outcomes.end(),
                  [](const Outcome& o) { return o.priority == serve::Priority::kInteractive; });
  std::vector<double> latency, other_latency, queue, batch, infer, lag;
  std::vector<std::int64_t> w_sent(kWindows), w_ok(kWindows), w_fwd(kWindows);
  std::int64_t forwarded = 0, wasted = 0, correct = 0, mismatches = 0, t_sum = 0;
  for (const Outcome* op : by_send) {
    const Outcome& o = *op;
    a.ledger.record(o.status, o.accepted);
    lag.push_back(o.lag_ms);
    const auto win = static_cast<std::size_t>(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(o.sent_s / run.window_s * kWindows), 0, kWindows - 1));
    ++w_sent[win];
    if (o.time_steps > 0) {
      ++forwarded;
      ++w_fwd[win];
    }
    if (o.status == serve::ResponseStatus::kExpired && o.time_steps > 0) ++wasted;
    if (o.id >= 0 && o.infer_ms > 0.0) a.infer_ms_by_id[o.id] = o.infer_ms;
    if (!serve::is_success(o.status)) continue;
    ++w_ok[win];
    const bool timed = !has_interactive || o.priority == serve::Priority::kInteractive;
    (timed ? latency : other_latency).push_back(o.latency_ms());
    queue.push_back(o.queue_ms);
    batch.push_back(o.batch_ms);
    infer.push_back(o.infer_ms);
    t_sum += o.time_steps;
    if (o.predicted == pool.labels[static_cast<std::size_t>(o.image)]) ++correct;
    const auto ref = refs.find(o.time_steps);
    if (ref == refs.end() || o.predicted != ref->second[static_cast<std::size_t>(o.image)]) {
      ++mismatches;
    }
  }
  const perfbench::Ledger& l = a.ledger;
  const std::int64_t successes = l.successes();
  const auto sent = static_cast<double>(l.sent);

  // Ledger: every request accounted for, and equal to the engine's deltas.
  for (const std::string& m : perfbench::ledger_mismatches(l, run.delta)) {
    checks.require(false, "ledger: " + m);
  }
  // Answers: top-1 equal to the offline forward at the same T.
  const double mismatch_ratio =
      successes > 0 ? static_cast<double>(mismatches) / static_cast<double>(successes) : 0.0;
  checks.require(mismatch_ratio <= kMaxReferenceMismatch,
                 fmt("reference: %.0f of %.0f answers differ from the offline forward",
                     static_cast<double>(mismatches), static_cast<double>(successes)));
  // Percentile rule: p99 needs at least 10 samples beyond it in every chunk.
  const auto timed = static_cast<std::int64_t>(latency.size());
  if (timed < kMinChunk) {
    checks.require(false, fmt("latency: %.0f timed successes cannot support p99",
                              static_cast<double>(timed)));
    return a;
  }
  const double accuracy = static_cast<double>(correct) / static_cast<double>(successes);
  const perfbench::Interval ci = perfbench::wilson95(correct, successes);
  checks.require((ci.hi - ci.lo) / 2.0 < kAccuracyBound * accuracy,
                 fmt("accuracy: 95%% interval [%.4f, %.4f] wider than the bound", ci.lo, ci.hi));
  double lag_p99 = 0.0, lag_max = 0.0;
  if (w.open_loop) {
    lag_p99 = perfbench::quantile(lag, 0.99);
    lag_max = lag.back();
    checks.require(lag_p99 <= kMaxLagP99Ms && lag_max <= kMaxLagMs,
                   fmt("generator lag: p99 %.3f ms, max %.3f ms over the bound", lag_p99, lag_max));
  }
  std::vector<double> p99_chunks;
  const double p50 = perfbench::chunked_quantile(latency, 0.5, kWindows, kMinChunk);
  const double p99 = perfbench::chunked_quantile(latency, 0.99, kWindows, kMinChunk, &p99_chunks);
  const double window_s = run.window_s / static_cast<double>(kWindows);
  std::vector<double> goodput, throughput, success;
  for (std::size_t i = 0; i < w_sent.size(); ++i) {
    goodput.push_back(static_cast<double>(w_ok[i]) / window_s);
    throughput.push_back(static_cast<double>(w_fwd[i]) / window_s);
    if (w_sent[i] > 0) {
      success.push_back(static_cast<double>(w_ok[i]) / static_cast<double>(w_sent[i]));
    }
  }

  std::printf("[perfbench] %lld sent: %lld ok, %lld degraded, %lld rejected, %lld shed at "
              "admission, %lld expired, %lld shed, %lld timeout, %lld unavailable, %lld error\n",
              static_cast<long long>(l.sent), static_cast<long long>(l.ok),
              static_cast<long long>(l.degraded), static_cast<long long>(l.rejected),
              static_cast<long long>(l.shed_admission), static_cast<long long>(l.expired),
              static_cast<long long>(l.shed), static_cast<long long>(l.timeout),
              static_cast<long long>(l.unavailable), static_cast<long long>(l.error));
  std::printf("[perfbench] fail_ratio %.5f; latency over %lld %s successes in %lld chunks, "
              "highest supported percentile p%g pooled; accuracy %.4f (95%% CI %.4f-%.4f); "
              "reference mismatches %lld\n",
              l.fail_ratio(), static_cast<long long>(timed),
              has_interactive ? "interactive" : "", static_cast<long long>(p99_chunks.size()),
              100.0 * perfbench::highest_supported_percentile(timed), accuracy, ci.lo, ci.hi,
              static_cast<long long>(mismatches));
  {
    std::vector<double> pooled = latency;
    std::printf("[perfbench] latency p99 %.3f ms (median over chunks; not gated, see "
                "perfbench/README.md); pooled p50 %.3f ms, p99 %.3f ms; p99 per chunk",
                p99, perfbench::quantile(pooled, 0.5), perfbench::quantile(pooled, 0.99));
    for (const double c : p99_chunks) std::printf(" %.3f", c);
    if (static_cast<std::int64_t>(other_latency.size()) >= kMinChunk) {
      std::printf("; batch-class p50 %.3f ms, p99 %.3f ms (%zu successes)",
                  perfbench::quantile(other_latency, 0.5), perfbench::quantile(other_latency, 0.99),
                  other_latency.size());
    }
    std::printf("\n");
  }

  std::printf("[perfbench] per window: goodput");
  for (const double g : goodput) std::printf(" %.1f", g);
  std::printf(" 1/s; success");
  for (const double r : success) std::printf(" %.4f", r);
  std::printf("\n");

  a.end_to_end = {
      {"latency_p50_ms", p50, "ms"},
      {"goodput_qps", perfbench::median(goodput), "1/s"},
      {"throughput_qps", perfbench::median(throughput), "1/s"},
      {"success_ratio", perfbench::median(success), "ratio"},
      {"accuracy", accuracy, "ratio"},
  };
  const serve::ServeStats& d = run.delta;
  a.serve_layer = {
      {"serve.queue_ms.p50", perfbench::quantile(queue, 0.5), "ms"},
      {"serve.queue_ms.p99", perfbench::quantile(queue, 0.99), "ms"},
      {"serve.batch_ms.p50", perfbench::quantile(batch, 0.5), "ms"},
      {"serve.batch_ms.p99", perfbench::quantile(batch, 0.99), "ms"},
      {"serve.infer_ms.p50", perfbench::quantile(infer, 0.5), "ms"},
      {"serve.infer_ms.p99", perfbench::quantile(infer, 0.99), "ms"},
      {"serve.batch_size.mean",
       d.batches > 0 ? static_cast<double>(forwarded) / static_cast<double>(d.batches) : 0.0,
       "count"},
      {"serve.shed_ratio", static_cast<double>(l.shed) / sent, "ratio"},
      {"serve.reject_ratio", static_cast<double>(l.rejected) / sent, "ratio"},
      {"serve.expired_ratio", static_cast<double>(l.shed_admission + l.expired) / sent, "ratio"},
      {"serve.timeouts", static_cast<double>(d.timeouts), "count"},
      {"serve.retries", static_cast<double>(d.retries), "count"},
      {"serve.wasted_forward_ratio",
       forwarded > 0 ? static_cast<double>(wasted) / static_cast<double>(forwarded) : 0.0,
       "ratio"},
      {"serve.degraded_ratio", static_cast<double>(l.degraded) / static_cast<double>(successes),
       "ratio"},
      {"serve.mean_t", static_cast<double>(t_sum) / static_cast<double>(successes), "steps"},
      {"serve.brownout_transitions",
       static_cast<double>(d.brownout_escalations + d.brownout_recoveries), "count"},
      {"gen.lag_p99_ms", lag_p99, "ms"},
      {"gen.lag_max_ms", lag_max, "ms"},
  };
  return a;
}

/// Per-layer metrics of the traced run: snn.* / tensor.* from the traced
/// half of the batches, serve.worker_busy_ratio and the tracing overhead from
/// the engine's infer_ms of traced and untraced batches. L<i> numbers the
/// synaptic layers (conv, linear, residual block) in chain order.
std::vector<Metric> layer_metrics(const perfbench::TraceSession& session,
                                  const std::vector<perfbench::ChainLayer>& chain,
                                  const std::map<std::int64_t, double>& infer_ms_by_id,
                                  double window_s, std::int64_t workers,
                                  std::vector<std::string>& chain_names) {
  const perfbench::TraceTotals t = session.totals();
  std::vector<Metric> out;
  if (t.forwards == 0) throw std::runtime_error("traced run saw no forward");
  const auto fwd_ns = static_cast<double>(t.forward_ns);
  const auto infer_of = [&infer_ms_by_id](std::int64_t id) {
    const auto it = infer_ms_by_id.find(id);
    return it == infer_ms_by_id.end() ? -1.0 : it->second;
  };
  // Coverage: span self times against the engine-stamped forward time.
  double engine_ms = 0.0, children_ms = 0.0;
  std::vector<double> traced_infer, untraced_infer;
  for (const perfbench::ForwardRecord& f : session.forwards()) {
    const double ms = infer_of(f.first_request_id);
    if (ms < 0.0) continue;
    engine_ms += ms;
    children_ms += static_cast<double>(f.children_ns) / 1e6;
    traced_infer.push_back(ms);
  }
  double busy_ms = engine_ms;
  for (const std::int64_t id : session.untraced_batches()) {
    const double ms = infer_of(id);
    if (ms < 0.0) continue;
    busy_ms += ms;
    untraced_infer.push_back(ms);
  }
  if (traced_infer.empty() || untraced_infer.empty()) {
    throw std::runtime_error("traced run lacks traced or untraced batches");
  }
  out.push_back({"trace.infer_overhead_ratio",
                 perfbench::median(traced_infer) / perfbench::median(untraced_infer), "ratio"});
  out.push_back({"snn.self_time_coverage", children_ms / engine_ms, "ratio"});
  out.push_back({"snn.begin_sequence_us",
                 static_cast<double>(t.begin_ns) / 1e3 / static_cast<double>(t.forwards), "us"});
  out.push_back({"serve.worker_busy_ratio",
                 busy_ms / 1e3 / (window_s * static_cast<double>(workers)), "ratio"});
  std::int64_t ordinal = 0;
  chain_names.clear();
  for (std::size_t c = 0; c < chain.size(); ++c) {
    const std::string prefix = "snn.chain" + std::to_string(c) + ".";
    if (!chain[c].synaptic) {
      chain_names.push_back(prefix + chain[c].kind);
      continue;
    }
    const std::string l = "L" + std::to_string(ordinal++);
    chain_names.push_back(prefix + l + "." + chain[c].kind);
    const auto self_ns = static_cast<double>(t.layer_ns[c]);
    const perfbench::KernelCounts& k = t.kernel_delta[c];
    const auto samples = static_cast<double>(k.sparse_samples + k.dense_samples);
    out.push_back({"snn." + l + ".step_us", self_ns / 1e3 / static_cast<double>(t.steps), "us"});
    out.push_back({"snn." + l + ".share", self_ns / fwd_ns, "ratio"});
    out.push_back({"snn." + l + ".in_density",
                   k.elements > 0 ? static_cast<double>(k.nonzeros) /
                                        static_cast<double>(k.elements)
                                  : 0.0,
                   "ratio"});
    out.push_back({"tensor." + l + ".gmacs",
                   self_ns > 0.0 ? static_cast<double>(chain[c].macs) *
                                       static_cast<double>(t.sample_steps) / self_ns
                                 : 0.0,
                   "GMAC/s"});
    out.push_back({"tensor." + l + ".sparse_share",
                   samples > 0.0 ? static_cast<double>(k.sparse_samples) / samples : 0.0,
                   "ratio"});
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("[perfbench] %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  const fs::path work(opt.work_dir);
  fs::create_directories(work);
  const TrainSet t = make_train_set();
  auto model = fresh_model(w);
  if (!load_model(*model, model_path(opt, w))) {
    throw std::runtime_error("no trained model for " + std::string(w.name) +
                             "; run `perfbench prepare` first");
  }
  const data::LabeledImages pool = make_pool(t, opt.seed);
  const serve::ServeConfig base = engine_config();

  const std::string art_path = (work / (std::string(w.name) + ".art")).string();

  // Set up kSetupReps times; the last engine serves the load.
  std::unique_ptr<perfbench::TraceSession> session;
  serve::ServeConfig config = base;
  if (opt.trace) {
    session = std::make_unique<perfbench::TraceSession>(std::size_t{1} << 14);
    perfbench::TraceSession* s = session.get();
    config.before_forward_hook = [s](const std::vector<std::int64_t>& ids, std::int64_t,
                                     snn::SnnNetwork& net) { s->before_forward(ids, net); };
  }
  std::vector<SetupTimes> reps(kSetupReps);
  Served served;
  for (std::int64_t r = 0; r < kSetupReps; ++r) {
    if (served.engine) served.engine->stop();
    served = {};
    served = set_up(*model, t, w, art_path, pool, config, reps[static_cast<std::size_t>(r)]);
  }
  const auto stage = [&reps](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : reps) v.push_back(s.*field);
    return perfbench::median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& s : reps) totals.push_back(s.total());
  const double setup_s = perfbench::median(totals);

  // The load.
  std::vector<perfbench::Arrival> schedule;
  if (w.open_loop) {
    perfbench::OpenLoopSpec spec;
    spec.qps = w.qps;
    spec.seconds = opt.seconds;
    spec.interactive_fraction = w.interactive_fraction;
    spec.pool_size = pool.size();
    schedule = perfbench::make_schedule(spec, opt.seed);
  }
  const auto drive = [&] {
    return w.open_loop ? run_open_loop(*served.engine, pool, schedule, opt.seconds)
                       : run_closed_loop(*served.engine, pool, w.depth, opt.seconds, opt.seed);
  };
  if (session) session->arm();
  const RunResult run = drive();
  served.engine->stop();

  // Offline references at every T the engine answered with, from the
  // artifact that served.
  std::vector<std::int64_t> steps;
  for (const Outcome& o : run.outcomes) {
    if (o.time_steps > 0 && std::find(steps.begin(), steps.end(), o.time_steps) == steps.end()) {
      steps.push_back(o.time_steps);
    }
  }
  const std::shared_ptr<const artifact::UllsnnArtifact> art =
      served.registry->active().artifact;
  Timer ref_timer;
  const References refs = compute_references(*art, pool, steps);
  std::printf("[perfbench] offline references for %lld pool images at %zu T value(s) in %.2f s\n",
              static_cast<long long>(pool.size()), steps.size(), ref_timer.seconds());
  const std::vector<perfbench::ChainLayer> chain =
      perfbench::describe_chain(*art->make_network(), base.input_shape);

  Checks checks;
  const Analysis a = analyse(run, w, pool, refs, checks);
  served = {};
  std::error_code ec;
  fs::remove(art_path, ec);

  std::vector<Metric> e2e = a.end_to_end;
  e2e.insert(e2e.begin(), {"setup_s", setup_s, "s"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_metrics(opt.trace ? "end-to-end (traced run: not for comparison)" : "end-to-end", e2e);

  std::vector<Metric> result = e2e;
  if (opt.trace) {
    std::vector<Metric> per_layer = a.serve_layer;
    per_layer.push_back({"core.collect_s", stage(&SetupTimes::collect_s), "s"});
    per_layer.push_back({"core.convert_s", stage(&SetupTimes::convert_s), "s"});
    per_layer.push_back({"artifact.pack_s", stage(&SetupTimes::pack_s), "s"});
    per_layer.push_back({"artifact.deploy_s", stage(&SetupTimes::deploy_s), "s"});
    per_layer.push_back({"serve.start_s", stage(&SetupTimes::start_s), "s"});
    std::vector<std::string> names;
    const std::vector<Metric> layers =
        layer_metrics(*session, chain, a.infer_ms_by_id, run.window_s, base.workers, names);
    per_layer.insert(per_layer.end(), layers.begin(), layers.end());
    print_metrics("per layer", per_layer);
    const fs::path trace_path = work / (std::string(w.name) + ".trace.json");
    session->write_chrome_trace(trace_path.string(), names);
    std::printf("[perfbench] spans written to %s (%lld dropped over the cap)\n",
                trace_path.c_str(), static_cast<long long>(session->dropped_spans()));
    result = per_layer;
  }

  for (const std::string& f : checks.failures) std::printf("[perfbench] CHECK FAILED: %s\n", f.c_str());
  const bool correct = checks.failures.empty();
  std::printf("%s\n", perfbench::result_json(correct, a.ledger.sent,
                                             a.ledger.sent - a.ledger.successes(), result)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.command == "prepare") {
      prepare_model(opt, find_workload(opt.workload), make_train_set());
      return 0;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
