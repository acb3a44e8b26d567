#include "src/tracer.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace snn = ullsnn::snn;

std::vector<ChainLayer> describe_chain(const snn::SnnNetwork& net,
                                       const ullsnn::Shape& sample_shape) {
  std::vector<ChainLayer> chain;
  ullsnn::Shape shape = {1};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  for (std::int64_t i = 0; i < net.size(); ++i) {
    const snn::SpikingLayer& layer = net.layer(i);
    ChainLayer c;
    c.kind = layer.name();
    c.synaptic = dynamic_cast<const snn::SpikingConv2d*>(&layer) != nullptr ||
                 dynamic_cast<const snn::SpikingLinear*>(&layer) != nullptr ||
                 dynamic_cast<const snn::SpikingResidualBlock*>(&layer) != nullptr;
    c.macs = layer.macs(shape);
    shape = layer.output_shape(shape);
    chain.push_back(std::move(c));
  }
  return chain;
}

void TraceTotals::merge(const TraceTotals& other) {
  forwards += other.forwards;
  sample_steps += other.sample_steps;
  steps += other.steps;
  forward_ns += other.forward_ns;
  begin_ns += other.begin_ns;
  if (layer_ns.empty()) {
    layer_ns.assign(other.layer_ns.size(), 0);
    kernel_delta.assign(other.kernel_delta.size(), {});
  }
  if (layer_ns.size() != other.layer_ns.size()) {
    throw std::logic_error("TraceTotals::merge: replicas with different chains");
  }
  for (std::size_t c = 0; c < layer_ns.size(); ++c) {
    layer_ns[c] += other.layer_ns[c];
    kernel_delta[c].nonzeros += other.kernel_delta[c].nonzeros;
    kernel_delta[c].elements += other.kernel_delta[c].elements;
    kernel_delta[c].sparse_samples += other.kernel_delta[c].sparse_samples;
    kernel_delta[c].dense_samples += other.kernel_delta[c].dense_samples;
  }
}

// ---- ReplicaTracer ----

ReplicaTracer::ReplicaTracer(snn::SnnNetwork& net, TraceClock::time_point epoch,
                             std::size_t span_cap)
    : epoch_(epoch), span_cap_(span_cap) {
  const auto layers = static_cast<std::size_t>(net.size());
  totals_.layer_ns.assign(layers, 0);
  spans_.reserve(span_cap_);
}

std::int64_t ReplicaTracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(TraceClock::now() - epoch_)
      .count();
}

void ReplicaTracer::push_span(std::int32_t name, std::int64_t start, std::int64_t end) {
  if (forward_span_ < 0) return;
  spans_.push_back({name, forward_span_, batch_id_, start, end});
}

std::vector<KernelCounts> ReplicaTracer::read_kernel_counts(snn::SnnNetwork& net) const {
  std::vector<KernelCounts> counts(static_cast<std::size_t>(net.size()));
  const auto add = [](KernelCounts& k, const ullsnn::SpikeKernelStats& s, bool density) {
    if (density) {
      k.nonzeros += s.nonzeros;
      k.elements += s.elements;
    }
    k.sparse_samples += s.sparse_samples;
    k.dense_samples += s.dense_samples;
  };
  for (std::int64_t i = 0; i < net.size(); ++i) {
    KernelCounts& k = counts[static_cast<std::size_t>(i)];
    snn::SpikingLayer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<snn::SpikingConv2d*>(&layer)) {
      add(k, conv->synapse().kernel_stats(), true);
    } else if (auto* linear = dynamic_cast<snn::SpikingLinear*>(&layer)) {
      add(k, linear->synapse().kernel_stats(), true);
    } else if (auto* block = dynamic_cast<snn::SpikingResidualBlock*>(&layer)) {
      add(k, block->conv1_synapse().kernel_stats(), true);
      add(k, block->conv2_synapse().kernel_stats(), false);
    }
  }
  return counts;
}

void ReplicaTracer::forward_start(const std::vector<std::int64_t>& ids) {
  batch_id_ = ids.empty() ? -1 : ids.front();
  start_ns_ = now_ns();
  last_ns_ = start_ns_;
  children_ns_ = 0;
  // Keep this forward's spans only if all of them fit under the cap; the
  // span count is known once on_sequence_begin reports T.
  forward_span_ = -1;
}

void ReplicaTracer::on_sequence_begin(snn::SnnNetwork& net, const ullsnn::Shape& input_shape,
                                      std::int64_t time_steps, bool /*train*/) {
  const std::int64_t now = now_ns();
  if (baseline_.empty()) baseline_ = read_kernel_counts(net);
  batch_size_ = input_shape.empty() ? 0 : input_shape.front();
  time_steps_ = time_steps;
  const std::size_t need = 2 + static_cast<std::size_t>(net.size() * time_steps);
  if (spans_.size() + need <= span_cap_) {
    forward_span_ = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({0, -1, batch_id_, start_ns_, start_ns_});  // end filled later
  } else {
    dropped_spans_ += static_cast<std::int64_t>(need);
  }
  push_span(1, start_ns_, now);
  totals_.begin_ns += now - start_ns_;
  children_ns_ += now - start_ns_;
  last_ns_ = now;
}

void ReplicaTracer::on_layer_step(snn::SnnNetwork& /*net*/, std::int64_t layer_index,
                                  const ullsnn::Tensor& /*output*/, std::int64_t /*t*/) {
  const std::int64_t now = now_ns();
  const std::int64_t self = now - last_ns_;
  totals_.layer_ns[static_cast<std::size_t>(layer_index)] += self;
  children_ns_ += self;
  push_span(2 + static_cast<std::int32_t>(layer_index), last_ns_, now);
  last_ns_ = now;
}

void ReplicaTracer::on_sequence_end(snn::SnnNetwork& net) {
  const std::int64_t now = now_ns();
  if (forward_span_ >= 0) spans_[static_cast<std::size_t>(forward_span_)].end_ns = now;
  totals_.forwards += 1;
  totals_.sample_steps += batch_size_ * time_steps_;
  totals_.steps += time_steps_;
  totals_.forward_ns += now - start_ns_;
  forwards_.push_back({batch_id_, children_ns_});
  latest_ = read_kernel_counts(net);
}

TraceTotals ReplicaTracer::totals() const {
  TraceTotals t = totals_;
  t.kernel_delta.assign(t.layer_ns.size(), {});
  if (!latest_.empty()) {
    for (std::size_t c = 0; c < latest_.size(); ++c) {
      t.kernel_delta[c].nonzeros = latest_[c].nonzeros - baseline_[c].nonzeros;
      t.kernel_delta[c].elements = latest_[c].elements - baseline_[c].elements;
      t.kernel_delta[c].sparse_samples = latest_[c].sparse_samples - baseline_[c].sparse_samples;
      t.kernel_delta[c].dense_samples = latest_[c].dense_samples - baseline_[c].dense_samples;
    }
  }
  return t;
}

// ---- TraceSession ----

TraceSession::TraceSession(std::size_t span_cap_per_replica)
    : span_cap_(span_cap_per_replica), epoch_(TraceClock::now()) {}

void TraceSession::before_forward(const std::vector<std::int64_t>& ids,
                                  snn::SnnNetwork& net) {
  if (!armed_.load(std::memory_order_acquire)) return;
  ReplicaTracer* tracer = nullptr;
  {
    ullsnn::MutexLock lock(mu_);
    std::unique_ptr<ReplicaTracer>& slot = replicas_[&net];
    if (!slot) slot = std::make_unique<ReplicaTracer>(net, epoch_, span_cap_);
    tracer = slot.get();
  }
  if (net.observer() == nullptr) {
    net.set_observer(tracer);
    tracer->forward_start(ids);
  } else {
    net.set_observer(nullptr);
    tracer->untraced_batches().push_back(ids.empty() ? -1 : ids.front());
  }
}

TraceTotals TraceSession::totals() const {
  ullsnn::MutexLock lock(mu_);
  TraceTotals all;
  for (const auto& entry : replicas_) all.merge(entry.second->totals());
  return all;
}

std::vector<ForwardRecord> TraceSession::forwards() const {
  ullsnn::MutexLock lock(mu_);
  std::vector<ForwardRecord> all;
  for (const auto& entry : replicas_) {
    all.insert(all.end(), entry.second->forwards().begin(), entry.second->forwards().end());
  }
  return all;
}

std::vector<std::int64_t> TraceSession::untraced_batches() const {
  ullsnn::MutexLock lock(mu_);
  std::vector<std::int64_t> all;
  for (const auto& entry : replicas_) {
    const std::vector<std::int64_t>& ids = entry.second->untraced_batches();
    all.insert(all.end(), ids.begin(), ids.end());
  }
  return all;
}

std::int64_t TraceSession::dropped_spans() const {
  ullsnn::MutexLock lock(mu_);
  std::int64_t dropped = 0;
  for (const auto& entry : replicas_) dropped += entry.second->dropped_spans();
  return dropped;
}

void TraceSession::write_chrome_trace(const std::string& path,
                                      const std::vector<std::string>& layer_names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  ullsnn::MutexLock lock(mu_);
  bool first = true;
  int tid = 0;
  for (const auto& entry : replicas_) {
    ++tid;
    for (const SpanRecord& s : entry.second->spans()) {
      const std::string name = s.name == 0   ? "serve.forward"
                               : s.name == 1 ? "snn.begin_sequence"
                                             : layer_names.at(static_cast<std::size_t>(s.name - 2));
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d, \"batch\": %lld}}",
                   first ? "" : ",\n", name.c_str(), tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent,
                   static_cast<long long>(s.batch));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot finish " + path);
}

}  // namespace perfbench
