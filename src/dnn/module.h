// Layer abstraction for the from-scratch DNN library.
//
// The library uses explicit layer-local backward passes (define-by-run with a
// per-layer cache) rather than a general autograd graph: every architecture
// in the paper is a feed-forward chain plus residual blocks, and explicit
// backward keeps the BPTT-through-time SNN trainer transparent and testable
// against finite differences.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace ullsnn::dnn {

/// A trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Parameters flagged false are excluded from weight decay (thresholds,
  /// leaks, biases — decaying those changes the model semantics).
  bool decay = true;
  /// Bumped by every writer of `value`: optimizer steps, checkpoint loads
  /// and restores, fault injection, and the synaptic layers' mutable weight
  /// accessors. Caches derived from `value` compare it to decide when to
  /// rebuild.
  std::uint64_t version = 0;

  void zero_grad() { grad.fill(0.0F); }
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Compute outputs; `train` enables stochastic behaviour (dropout) and
  /// caching for backward. Inference calls with train=false may skip caches.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Gradient w.r.t. the layer input, given gradient w.r.t. its output.
  /// Accumulates parameter gradients into params()[i]->grad.
  /// Must be preceded by forward(..., train=true) on the same input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Shape of the output given an input shape (excluding any batch effects:
  /// pass the full [N, ...] shape; N is preserved).
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Multiply-accumulate count of one forward pass at the given input shape
  /// (0 for non-arithmetic layers). Used by the FLOPs/energy accounting.
  virtual std::int64_t macs(const Shape& input) const { (void)input; return 0; }

  /// Release cached forward tensors (after an optimizer step, or to bound
  /// memory during pure inference).
  virtual void clear_cache() {}

  /// Immediate sub-layers, in execution order; empty for leaf layers. The
  /// pointers stay owned by this layer. Graph walks (verify/, introspection
  /// tooling) use this to descend into containers without knowing their
  /// concrete types.
  virtual std::vector<Layer*> children() { return {}; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ullsnn::dnn
