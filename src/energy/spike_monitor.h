// Spiking-activity measurement (Sec. VI-A / Fig. 4(a)): per-layer average
// spike count per neuron per image, gathered by running inference with the
// layers' built-in activity counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/snn/snn_network.h"

namespace ullsnn::energy {

struct LayerActivity {
  std::string name;
  std::int64_t neurons = 0;         // per sample
  double spikes_per_neuron = 0.0;   // per image, summed over T steps
};

struct ActivityReport {
  std::vector<LayerActivity> layers;
  double accuracy = 0.0;            // of the measuring inference run
  std::int64_t samples = 0;
  double total_spikes_per_image = 0.0;

  /// Average spiking activity across spiking layers (the Fig. 4(a) rollup).
  double mean_spikes_per_neuron() const;
};

/// Reset counters, run the whole dataset through `net`, and report activity.
/// Throws std::invalid_argument on an empty dataset.
ActivityReport measure_activity(snn::SnnNetwork& net,
                                const data::LabeledImages& dataset,
                                std::int64_t batch_size = 64);

}  // namespace ullsnn::energy
