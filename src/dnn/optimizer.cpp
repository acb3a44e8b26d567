#include "src/dnn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace ullsnn::dnn {

Sgd::Sgd(std::vector<Param*> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  if (config_.lr <= 0.0F) throw std::invalid_argument("Sgd: lr must be positive");
  if (config_.momentum < 0.0F || config_.momentum >= 1.0F) {
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
  }
  velocity_.reserve(params_.size());
  for (Param* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor& v = velocity_[i];
    const float decay = p.decay ? config_.weight_decay : 0.0F;
    ++p.version;
    for (std::int64_t j = 0; j < p.value.numel(); ++j) {
      const float g = p.grad[j] + decay * p.value[j];
      v[j] = config_.momentum * v[j] + g;
      p.value[j] -= config_.lr * v[j];
    }
  }
}

StepDecaySchedule::StepDecaySchedule(float base_lr, std::int64_t total_epochs,
                                     std::vector<double> milestone_fractions,
                                     float gamma)
    : base_lr_(base_lr), gamma_(gamma) {
  if (base_lr <= 0.0F) throw std::invalid_argument("StepDecaySchedule: lr must be positive");
  if (total_epochs <= 0) throw std::invalid_argument("StepDecaySchedule: epochs must be positive");
  for (double f : milestone_fractions) {
    milestones_.push_back(static_cast<std::int64_t>(
        std::llround(f * static_cast<double>(total_epochs))));
  }
}

float StepDecaySchedule::lr_at(std::int64_t epoch) const {
  float lr = base_lr_;
  for (std::int64_t m : milestones_) {
    if (epoch >= m) lr *= gamma_;
  }
  return lr;
}

}  // namespace ullsnn::dnn
