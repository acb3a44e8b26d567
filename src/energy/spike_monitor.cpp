#include "src/energy/spike_monitor.h"

#include <stdexcept>

namespace ullsnn::energy {

double ActivityReport::mean_spikes_per_neuron() const {
  if (layers.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& layer : layers) acc += layer.spikes_per_neuron;
  return acc / static_cast<double>(layers.size());
}

ActivityReport measure_activity(snn::SnnNetwork& net,
                                const data::LabeledImages& dataset,
                                std::int64_t batch_size) {
  if (dataset.size() == 0) {
    throw std::invalid_argument("measure_activity: dataset is empty");
  }
  net.reset_stats();
  ActivityReport report;
  report.samples = dataset.size();
  report.accuracy = snn::evaluate_snn(net, dataset, batch_size);
  const std::vector<double> rates = net.spikes_per_neuron(report.samples);
  std::size_t next_rate = 0;
  for (std::int64_t i = 0; i < net.size(); ++i) {
    const snn::SpikingLayer& layer = net.layer(i);
    if (layer.neurons() == 0) continue;
    LayerActivity activity;
    activity.name = layer.name() + "#" + std::to_string(i);
    activity.neurons = layer.neurons();
    activity.spikes_per_neuron = rates[next_rate++];
    report.total_spikes_per_image +=
        static_cast<double>(layer.spikes_emitted()) / static_cast<double>(report.samples);
    report.layers.push_back(std::move(activity));
  }
  return report;
}

}  // namespace ullsnn::energy
