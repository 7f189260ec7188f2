// Bagged ensemble of MLPs.
//
// Section IV.D: "We used bagging to improve the ANN's accuracy and
// generalization, which trains several different ANNs using a subset of
// the input data and averages the ANNs' outputs... We trained 30 ANNs and
// initialized the model weights randomly."
#pragma once

#include <vector>

#include "ann/mlp.hpp"
#include "ann/trainer.hpp"

namespace hetsched {

struct BaggingConfig {
  std::size_t ensemble_size = 30;
  MlpConfig net;
  TrainerConfig trainer;
};

class BaggedEnsemble {
 public:
  // Trains `ensemble_size` nets, each on a bootstrap resample as large
  // as `train` and from independently random initial weights.
  BaggedEnsemble(const BaggingConfig& config, const Dataset& train,
                 Rng& rng);

  std::size_t size() const { return members_.size(); }
  const Mlp& member(std::size_t i) const;

  // Mean of the member outputs.
  std::vector<double> predict_one(std::span<const double> input) const;

 private:
  std::vector<Mlp> members_;
};

}  // namespace hetsched
