// Multi-layer perceptron with backpropagation.
//
// The paper's predictor is a 3-hidden-structure ANN whose empirical best
// topology was {10, 18, 5, 1}: 10 selected execution statistics in, two
// hidden layers of 18 and 5 PEs, one output (the predicted best cache
// size). This class implements the general fully-connected case with
// mini-batch gradient descent plus momentum.
#pragma once

#include <cstdint>
#include <vector>

#include "ann/activations.hpp"
#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace hetsched {

struct MlpConfig {
  // Layer widths including input and output, e.g. {10, 18, 5, 1}.
  std::vector<std::size_t> layer_sizes{10, 18, 5, 1};
  Activation hidden_activation = Activation::kTanh;
  Activation output_activation = Activation::kIdentity;
};

class Mlp {
 public:
  // Weights are Xavier-initialised from `rng` (the paper initialises each
  // bagged net's weights randomly).
  Mlp(MlpConfig config, Rng& rng);

  // Reconstructs a net from explicit parameters (deserialisation).
  // Shapes must match the config.
  static Mlp from_parameters(MlpConfig config, std::vector<Matrix> weights,
                             std::vector<Matrix> biases);

  const MlpConfig& config() const { return config_; }
  std::size_t input_size() const { return config_.layer_sizes.front(); }
  std::size_t output_size() const { return config_.layer_sizes.back(); }
  std::size_t parameter_count() const;

  // Forward pass over a batch (n x input_size) → (n x output_size).
  Matrix predict(const Matrix& inputs) const;
  // Single-sample convenience.
  std::vector<double> predict_one(std::span<const double> input) const;

  // One gradient step on (inputs, targets) with mean-squared-error loss.
  // `momentum` in [0, 1).
  void train_batch(const Matrix& inputs, const Matrix& targets,
                   double learning_rate, double momentum);

  // Introspection for tests and serialisation.
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 private:
  Mlp() = default;  // for from_parameters

  // Forward pass retaining every layer's activated output.
  std::vector<Matrix> forward_all(const Matrix& inputs) const;

  MlpConfig config_;
  std::vector<Matrix> weights_;   // [l]: sizes[l] x sizes[l+1]
  std::vector<Matrix> biases_;    // [l]: 1 x sizes[l+1]
  std::vector<Matrix> velocity_w_;
  std::vector<Matrix> velocity_b_;
};

}  // namespace hetsched
