#include "src/dnn/adam.h"

#include <cmath>
#include <stdexcept>

namespace ullsnn::dnn {

Adam::Adam(std::vector<Param*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  if (config_.lr <= 0.0F) throw std::invalid_argument("Adam: lr must be positive");
  if (config_.beta1 < 0.0F || config_.beta1 >= 1.0F || config_.beta2 < 0.0F ||
      config_.beta2 >= 1.0F) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0F - std::pow(config_.beta1, static_cast<float>(t_));
  const float bias2 = 1.0F - std::pow(config_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const float decay = p.decay ? config_.weight_decay : 0.0F;
    ++p.version;
    for (std::int64_t j = 0; j < p.value.numel(); ++j) {
      const float g = p.grad[j];
      m[j] = config_.beta1 * m[j] + (1.0F - config_.beta1) * g;
      v[j] = config_.beta2 * v[j] + (1.0F - config_.beta2) * g * g;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      p.value[j] -= config_.lr * (m_hat / (std::sqrt(v_hat) + config_.epsilon) +
                                  decay * p.value[j]);
    }
  }
}

}  // namespace ullsnn::dnn
