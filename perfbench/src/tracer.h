// Span tracing for the benchmark's traced run.
//
// The benchmark installs one ReplicaTracer (an snn::StepObserver) on each
// engine replica from ServeConfig::before_forward_hook, which hands over the
// replica that is about to run a batch. Per forward the tracer records:
//
//   serve.forward        hook call -> on_sequence_end (parent of the rest)
//   snn.begin_sequence   hook call -> on_sequence_begin (reset_state +
//                        every layer's begin_sequence)
//   snn.L<c>             previous event -> on_layer_step(c, t): the self
//                        time of chain layer c at step t. Layer 0's span
//                        also holds the per-step input encoding and the
//                        previous step's logit accumulation.
//
// Every other forward of a replica runs with the observer detached, so one
// run measures traced and untraced batches side by side under the same load:
// their infer_ms ratio is the tracing overhead.
//
// Each replica's tracer is touched only by the worker thread that owns the
// replica, so recording takes no lock. Aggregates cover every traced forward;
// the raw spans are kept in memory up to a cap and written out after the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/snn/snn_network.h"
#include "src/util/mutex.h"

namespace perfbench {

using TraceClock = std::chrono::steady_clock;

/// What the benchmark knows about one chain layer of the served network.
struct ChainLayer {
  std::string kind;              // SpikingLayer::name()
  bool synaptic = false;         // conv, linear or residual block
  std::int64_t macs = 0;         // dense MACs per sample per time step
};

/// Describe `net`'s chain for per-sample input `sample_shape` ([C, H, W]).
std::vector<ChainLayer> describe_chain(const ullsnn::snn::SnnNetwork& net,
                                       const ullsnn::Shape& sample_shape);

/// Cumulative synaptic kernel counters of one chain layer (all synapses of a
/// residual block; the density counts the block's input synapse only).
struct KernelCounts {
  std::int64_t nonzeros = 0;
  std::int64_t elements = 0;
  std::int64_t sparse_samples = 0;
  std::int64_t dense_samples = 0;
};

/// One traced forward, for checking span coverage against the engine's own
/// InferResponse::infer_ms.
struct ForwardRecord {
  std::int64_t first_request_id = -1;
  std::int64_t children_ns = 0;  // begin_sequence + every layer span
};

struct SpanRecord {
  std::int32_t name = 0;    // 0 = serve.forward, 1 = snn.begin_sequence, 2 + c = chain layer c
  std::int32_t parent = -1; // index of the forward span in the same replica, -1 = root
  std::int64_t batch = 0;   // first request id of the batch (joins spans of one batch)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-replica totals over the traced window.
struct TraceTotals {
  std::int64_t forwards = 0;
  std::int64_t sample_steps = 0;   // sum of batch * T
  std::int64_t steps = 0;          // sum of T
  std::int64_t forward_ns = 0;
  std::int64_t begin_ns = 0;
  std::vector<std::int64_t> layer_ns;         // per chain layer
  std::vector<KernelCounts> kernel_delta;     // per chain layer

  void merge(const TraceTotals& other);
};

class ReplicaTracer final : public ullsnn::snn::StepObserver {
 public:
  ReplicaTracer(ullsnn::snn::SnnNetwork& net, TraceClock::time_point epoch,
                std::size_t span_cap);
  ReplicaTracer(const ReplicaTracer&) = delete;
  ReplicaTracer& operator=(const ReplicaTracer&) = delete;

  /// Stamp the start of a forward attempt for the batch `ids`.
  void forward_start(const std::vector<std::int64_t>& ids);

  void on_sequence_begin(ullsnn::snn::SnnNetwork& net, const ullsnn::Shape& input_shape,
                         std::int64_t time_steps, bool train) override;
  void on_layer_step(ullsnn::snn::SnnNetwork& net, std::int64_t layer_index,
                     const ullsnn::Tensor& output, std::int64_t t) override;
  void on_sequence_end(ullsnn::snn::SnnNetwork& net) override;

  TraceTotals totals() const;
  const std::vector<ForwardRecord>& forwards() const { return forwards_; }
  /// First request id of each batch that ran with the observer detached.
  std::vector<std::int64_t>& untraced_batches() { return untraced_; }
  const std::vector<std::int64_t>& untraced_batches() const { return untraced_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::int64_t dropped_spans() const { return dropped_spans_; }

 private:
  std::int64_t now_ns() const;
  void push_span(std::int32_t name, std::int64_t start, std::int64_t end);
  std::vector<KernelCounts> read_kernel_counts(ullsnn::snn::SnnNetwork& net) const;

  TraceClock::time_point epoch_;
  std::size_t span_cap_;

  // Current forward.
  std::int64_t batch_id_ = -1;
  std::int64_t start_ns_ = 0;
  std::int64_t last_ns_ = 0;
  std::int64_t children_ns_ = 0;
  std::int64_t batch_size_ = 0;
  std::int64_t time_steps_ = 0;
  std::int32_t forward_span_ = -1;  // -1 while this forward is not kept

  TraceTotals totals_;
  std::vector<KernelCounts> baseline_;  // counters at the first traced forward
  std::vector<KernelCounts> latest_;
  std::vector<ForwardRecord> forwards_;
  std::vector<std::int64_t> untraced_;
  std::vector<SpanRecord> spans_;
  std::int64_t dropped_spans_ = 0;
};

/// All replicas' tracers for one engine. before_forward() is the body of the
/// engine's before_forward_hook; it is a no-op until arm() is called, then
/// attaches the replica's tracer to every other forward.
class TraceSession {
 public:
  explicit TraceSession(std::size_t span_cap_per_replica);
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void arm() { armed_.store(true, std::memory_order_release); }
  void before_forward(const std::vector<std::int64_t>& ids, ullsnn::snn::SnnNetwork& net);

  // Read only after the engine has stopped (its worker threads joined).
  TraceTotals totals() const;
  std::vector<ForwardRecord> forwards() const;
  std::vector<std::int64_t> untraced_batches() const;
  std::int64_t dropped_spans() const;
  /// Chrome trace-event JSON of the kept spans; `layer_names[c]` names chain
  /// layer c.
  void write_chrome_trace(const std::string& path,
                          const std::vector<std::string>& layer_names) const;

 private:
  const std::size_t span_cap_;
  const TraceClock::time_point epoch_;
  std::atomic<bool> armed_{false};
  mutable ullsnn::Mutex mu_;
  std::map<const ullsnn::snn::SnnNetwork*, std::unique_ptr<ReplicaTracer>> replicas_
      GUARDED_BY(mu_);
};

}  // namespace perfbench
