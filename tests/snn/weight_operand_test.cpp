// When a synaptic layer's weight operand (transpose, fp32 panels, int8
// panels) is rebuilt. The operand lives across sequences and reset_state()
// and is rebuilt only when the weight version moves, so every writer of a
// synaptic weight must bump it: after any write, the next forward must be
// bitwise what a freshly built network with the new weights computes. The
// operand must also survive many requests unchanged, follow a kernel-tier
// switch, and leave artifact-borrowed weights borrowed.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dnn/adam.h"
#include "src/dnn/optimizer.h"
#include "src/robust/checkpoint.h"
#include "src/robust/fault_injector.h"
#include "src/robust/health.h"
#include "src/snn/snn_network.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/random.h"

namespace ullsnn::snn {
namespace {

constexpr std::int64_t kTimeSteps = 3;

/// Analog conv 2->8 and spiking conv 8->8 on 8x8, then a 512->128 hidden
/// linear (above the naive-GEMM cutoff even at batch 1, so its dense steps
/// run the prepacked panels) and a 128->10 readout. The spiking layers see
/// input densities on both sides of the dispatch threshold: the first step
/// is sparse, later steps are dense.
constexpr std::int64_t kSpikingConv = 1;
constexpr std::int64_t kHidden = 3;

std::unique_ptr<SnnNetwork> make_net(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<SnnNetwork>(kTimeSteps);
  IfConfig neuron;
  neuron.v_threshold = 1.0F;
  Tensor conv({8, 2, 3, 3});
  uniform_fill(conv, -0.5F, 0.5F, rng);
  net->emplace<SpikingConv2d>(std::move(conv), Conv2dSpec{2, 8, 3, 1, 1}, neuron);
  Tensor conv2({8, 8, 3, 3});
  uniform_fill(conv2, -0.2F, 0.3F, rng);
  net->emplace<SpikingConv2d>(std::move(conv2), Conv2dSpec{8, 8, 3, 1, 1}, neuron);
  net->emplace<SpikingFlatten>();
  Tensor hidden({128, 512});
  uniform_fill(hidden, -0.05F, 0.06F, rng);
  net->emplace<SpikingLinear>(std::move(hidden), neuron, /*with_neuron=*/true);
  Tensor readout({10, 128});
  uniform_fill(readout, -0.5F, 0.5F, rng);
  net->emplace<SpikingLinear>(std::move(readout), IfConfig{}, /*with_neuron=*/false);
  return net;
}

Tensor make_images(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  Tensor images({batch, 2, 8, 8});
  uniform_fill(images, 0.0F, 1.0F, rng);
  return images;
}

/// Copies of every parameter value (deep for owned tensors).
std::vector<Tensor> weights_of(SnnNetwork& net) {
  std::vector<Tensor> out;
  for (const Param* p : net.params()) out.push_back(p->value);
  return out;
}

/// A network built from scratch around `weights`: its operands are built
/// on its first forward, so its logits are the ground truth.
std::unique_ptr<SnnNetwork> fresh_net(const std::vector<Tensor>& weights,
                                      Precision precision) {
  auto net = make_net(0);
  const std::vector<Param*> params = net->params();
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = weights[i];
  net->set_precision(precision);
  return net;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what;
}

/// Eval, write through `write`, eval again: the second eval must match a
/// fresh network holding the written weights.
void check_writer(const std::string& name,
                  const std::function<void(SnnNetwork&, const std::vector<Param*>&)>& write) {
  SCOPED_TRACE(name);
  auto net = make_net(1);
  // Taken before the first forward, as a trainer holds them: the writer
  // itself, not the accessor, must move the version.
  const std::vector<Param*> params = net->params();
  const Tensor images = make_images(4, 2);
  const Tensor before = net->forward(images, false);
  write(*net, params);
  net->reset_state();
  const Tensor after = net->forward(images, false);
  const Tensor want = fresh_net(weights_of(*net), Precision::kFp32)->forward(images, false);
  expect_bitwise_equal(after, want, name);
  bool moved = false;
  for (std::int64_t i = 0; i < after.numel(); ++i) moved = moved || after[i] != before[i];
  EXPECT_TRUE(moved) << "the write did not change the logits; the check is vacuous";
}

void fill_grads(const std::vector<Param*>& params) {
  Rng rng(3);
  for (Param* p : params) uniform_fill(p->grad, -1.0F, 1.0F, rng);
}

TEST(WeightOperandTest, SgdStepRebuildsOperand) {
  check_writer("Sgd::step", [](SnnNetwork&, const std::vector<Param*>& params) {
    dnn::SgdConfig config;
    config.lr = 0.05F;
    dnn::Sgd sgd(params, config);
    fill_grads(params);
    sgd.step();
  });
}

TEST(WeightOperandTest, AdamStepRebuildsOperand) {
  check_writer("Adam::step", [](SnnNetwork&, const std::vector<Param*>& params) {
    dnn::AdamConfig config;
    config.lr = 0.05F;
    dnn::Adam adam(params, config);
    fill_grads(params);
    adam.step();
  });
}

TEST(WeightOperandTest, LoadParamsRebuildsOperand) {
  const std::string path = testing::TempDir() + "/operand_load_params.ckpt";
  auto other = make_net(7);
  robust::save_params(other->params(), path);
  check_writer("load_params", [&](SnnNetwork&, const std::vector<Param*>& params) {
    robust::load_params(params, path);
  });
  std::filesystem::remove(path);
}

TEST(WeightOperandTest, CheckpointRestoreRebuildsOperand) {
  const std::string path = testing::TempDir() + "/operand_restore.ckpt";
  auto other = make_net(8);
  const std::vector<Param*> other_params = other->params();
  std::vector<Tensor> velocity;
  for (const Param* p : other_params) velocity.emplace_back(p->value.shape());
  Rng rng(4);
  robust::TrainCheckpointer checkpointer(path);
  checkpointer.save(1, other_params, velocity, rng);
  check_writer("TrainCheckpointer::restore",
               [&](SnnNetwork&, const std::vector<Param*>& params) {
                 std::vector<Tensor> v = velocity;
                 Rng r(5);
                 EXPECT_EQ(checkpointer.restore(params, v, r), 1);
               });
  checkpointer.remove();
}

TEST(WeightOperandTest, HealthRollbackRebuildsOperand) {
  check_writer("HealthMonitor::restore", [](SnnNetwork&, const std::vector<Param*>& params) {
    // Snapshot other weights, then roll back to them.
    auto other = make_net(9);
    const std::vector<Param*> other_params = other->params();
    std::vector<Tensor> velocity;
    for (const Param* p : other_params) velocity.emplace_back(p->value.shape());
    Rng rng(6);
    robust::HealthMonitor monitor(robust::GuardConfig{});
    monitor.snapshot(other_params, velocity, rng);
    EXPECT_TRUE(monitor.restore(params, velocity, rng));
  });
}

TEST(WeightOperandTest, FaultInjectionRebuildsOperand) {
  check_writer("FaultInjector::inject", [](SnnNetwork&, const std::vector<Param*>& params) {
    robust::FaultSpec spec;
    spec.weight_signflip_rate = 0.2;
    robust::FaultInjector injector(spec);
    EXPECT_GT(injector.inject(params), 0);
  });
}

TEST(WeightOperandTest, DirectWriteThroughWeightAccessorRebuildsOperand) {
  check_writer("weight()", [](SnnNetwork& net, const std::vector<Param*>&) {
    auto& conv = dynamic_cast<SpikingConv2d&>(net.layer(kSpikingConv));
    conv.synapse().weight().value *= -1.0F;
    auto& hidden = dynamic_cast<SpikingLinear&>(net.layer(kHidden));
    Tensor& w = hidden.synapse().weight().value;
    for (std::int64_t i = 0; i < w.numel(); i += 3) w[i] = 0.2F;
  });
}

TEST(WeightOperandTest, ManyRequestsThroughOneReplicaMatchFreshNetworks) {
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    for (const std::int64_t batch : {1, 8}) {
      SCOPED_TRACE(std::string(to_string(precision)) + " batch " + std::to_string(batch));
      auto replica = make_net(11);
      replica->set_precision(precision);
      const std::vector<Tensor> weights = weights_of(*replica);
      for (std::uint64_t request = 0; request < 4; ++request) {
        const Tensor images = make_images(batch, 100 + request);
        replica->reset_state();
        const Tensor got = replica->forward(images, false);
        const Tensor want = fresh_net(weights, precision)->forward(images, false);
        expect_bitwise_equal(got, want, "request " + std::to_string(request));
      }
      // Both dispatch paths ran, so the transpose and the dense operand were
      // both reused across requests. Linear layers dispatch per batch, and
      // at batch 8 every step of this one is dense.
      auto& conv = dynamic_cast<SpikingConv2d&>(replica->layer(kSpikingConv));
      EXPECT_GT(conv.synapse().kernel_stats().sparse_samples, 0);
      EXPECT_GT(conv.synapse().kernel_stats().dense_samples, 0);
      auto& hidden = dynamic_cast<SpikingLinear&>(replica->layer(kHidden));
      EXPECT_GT(hidden.synapse().kernel_stats().dense_samples, 0);
      if (batch == 1) EXPECT_GT(hidden.synapse().kernel_stats().sparse_samples, 0);
    }
  }
}

TEST(WeightOperandTest, KernelTierSwitchRepacksOperand) {
  const KernelIsa original = active_kernel_isa();
  auto net = make_net(12);
  const std::vector<Tensor> weights = weights_of(*net);
  const Tensor images = make_images(8, 13);
  for (const KernelIsa isa : supported_kernel_isas()) {
    SCOPED_TRACE(to_string(isa));
    set_kernel_isa_for_testing(isa);
    net->reset_state();
    Tensor got;
    ASSERT_NO_THROW(got = net->forward(images, false));
    const Tensor want = fresh_net(weights, Precision::kFp32)->forward(images, false);
    expect_bitwise_equal(got, want, "after switching tier");
  }
  set_kernel_isa_for_testing(original);
}

TEST(WeightOperandTest, Int8OnBorrowedWeightsKeepsThemBorrowed) {
  // Synaptic weights read through external memory, as an artifact replica's
  // do; neuron parameters stay owned, as the artifact loader leaves them.
  const std::vector<Tensor> owned = weights_of(*make_net(14));
  auto net = make_net(0);
  const std::vector<Param*> params = net->params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = owned[i].rank() >= 2
                           ? Tensor::borrow(owned[i].shape(), owned[i].data())
                           : owned[i];
  }
  net->set_precision(Precision::kInt8);  // no pinned quantized weight
  const Tensor images = make_images(8, 15);
  const Tensor got = net->forward(images, false);
  const SnnNetwork& view = *net;
  for (const std::int64_t i : {std::int64_t{0}, kSpikingConv}) {
    const auto& conv = dynamic_cast<const SpikingConv2d&>(view.layer(i));
    EXPECT_TRUE(conv.synapse().weight().value.borrowed()) << "conv " << i;
  }
  for (const std::int64_t i : {kHidden, kHidden + 1}) {
    const auto& linear = dynamic_cast<const SpikingLinear&>(view.layer(i));
    EXPECT_TRUE(linear.synapse().weight().value.borrowed()) << "linear " << i;
  }
  const Tensor want = fresh_net(owned, Precision::kInt8)->forward(images, false);
  expect_bitwise_equal(got, want, "borrowed int8");
}

}  // namespace
}  // namespace ullsnn::snn
