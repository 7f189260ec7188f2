// Training loop: mini-batch SGD with momentum and learning-rate decay.
// The net keeps its final weights; the bagging ensemble does the
// regularising.
#pragma once

#include "ann/dataset.hpp"
#include "ann/mlp.hpp"

namespace hetsched {

struct TrainerConfig {
  std::size_t max_epochs = 1200;
};

// Trains `net` in place on `train` for `config.max_epochs` epochs of
// shuffled mini-batches; `rng` drives the shuffling. The batch size,
// learning rate, momentum and decay are the constants in trainer.cpp.
void train_mlp(Mlp& net, const Dataset& train, const TrainerConfig& config,
               Rng& rng);

}  // namespace hetsched
