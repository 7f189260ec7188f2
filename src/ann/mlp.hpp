// Multi-layer perceptron with backpropagation.
//
// The paper's predictor is a 3-hidden-structure ANN whose empirical best
// topology was {10, 18, 5, 1}: 10 selected execution statistics in, two
// hidden layers of 18 and 5 PEs, one output (the predicted best cache
// size). This class implements the general fully-connected case with
// mini-batch gradient descent plus momentum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ann/activations.hpp"
#include "ann/dataset.hpp"
#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace hetsched {

struct MlpConfig {
  // Layer widths including input and output, e.g. {10, 18, 5, 1}.
  std::vector<std::size_t> layer_sizes{10, 18, 5, 1};
  Activation hidden_activation = Activation::kTanh;
  Activation output_activation = Activation::kIdentity;
};

// The state a training run works in, sized for batches of up to
// `max_rows` rows: every layer's activations back to back (layer l as a
// rows x layer_sizes[l] block, the gathered inputs first), the delta of
// the layer being back-propagated and of the one below it, one layer's
// weight and bias gradients, and every layer's momentum (velocity), zero
// at construction and carried from step to step. The trainer keeps it
// for as long as it trains, so a trained or loaded net carries none of
// it.
struct TrainScratch {
  TrainScratch(const MlpConfig& config, std::size_t max_rows);

  std::vector<std::size_t> layer_sizes;
  std::size_t max_rows = 0;
  std::vector<double> acts;
  std::vector<double> delta;
  std::vector<double> next_delta;
  std::vector<double> grad_w;
  std::vector<double> grad_b;
  std::vector<Matrix> velocity_w;  // [l]: sizes[l] x sizes[l+1]
  std::vector<Matrix> velocity_b;  // [l]: 1 x sizes[l+1]
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

  // One gradient step with mean-squared-error loss on the rows of `data`
  // that `rows` lists, in that order. `momentum` in [0, 1); `scratch`
  // must be built for this net's layer sizes and hold rows.size() rows,
  // and carries the momentum from one step of a training run to the
  // next.
  void train_batch(const Dataset& data, std::span<const std::size_t> rows,
                   double learning_rate, double momentum,
                   TrainScratch& scratch);

  // Introspection for tests and serialisation.
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 private:
  Mlp() = default;  // for from_parameters

  // Forward pass of `rows` rows laid out as in TrainScratch::acts: reads
  // the input block at the front of `acts` and writes each layer's
  // activated output into the block after its input.
  void forward(std::span<double> acts, std::size_t rows) const;

  MlpConfig config_;
  std::vector<Matrix> weights_;   // [l]: sizes[l] x sizes[l+1]
  std::vector<Matrix> biases_;    // [l]: 1 x sizes[l+1]
};

}  // namespace hetsched
