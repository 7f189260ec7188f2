#include "ann/mlp.hpp"

#include "util/contracts.hpp"

namespace hetsched {

Mlp::Mlp(MlpConfig config, Rng& rng) : config_(std::move(config)) {
  HETSCHED_REQUIRE(config_.layer_sizes.size() >= 2);
  for (std::size_t s : config_.layer_sizes) {
    HETSCHED_REQUIRE(s > 0);
  }
  const std::size_t layers = config_.layer_sizes.size() - 1;
  weights_.reserve(layers);
  biases_.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    weights_.push_back(Matrix::xavier(config_.layer_sizes[l],
                                      config_.layer_sizes[l + 1], rng));
    biases_.emplace_back(1, config_.layer_sizes[l + 1]);
    velocity_w_.emplace_back(config_.layer_sizes[l],
                             config_.layer_sizes[l + 1]);
    velocity_b_.emplace_back(1, config_.layer_sizes[l + 1]);
  }
}

Mlp Mlp::from_parameters(MlpConfig config, std::vector<Matrix> weights,
                         std::vector<Matrix> biases) {
  HETSCHED_REQUIRE(config.layer_sizes.size() >= 2);
  const std::size_t layers = config.layer_sizes.size() - 1;
  HETSCHED_REQUIRE(weights.size() == layers);
  HETSCHED_REQUIRE(biases.size() == layers);
  for (std::size_t l = 0; l < layers; ++l) {
    HETSCHED_REQUIRE(weights[l].rows() == config.layer_sizes[l]);
    HETSCHED_REQUIRE(weights[l].cols() == config.layer_sizes[l + 1]);
    HETSCHED_REQUIRE(biases[l].rows() == 1);
    HETSCHED_REQUIRE(biases[l].cols() == config.layer_sizes[l + 1]);
  }
  Mlp net;
  net.config_ = std::move(config);
  net.weights_ = std::move(weights);
  net.biases_ = std::move(biases);
  for (std::size_t l = 0; l < layers; ++l) {
    net.velocity_w_.emplace_back(net.config_.layer_sizes[l],
                                 net.config_.layer_sizes[l + 1]);
    net.velocity_b_.emplace_back(1, net.config_.layer_sizes[l + 1]);
  }
  return net;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
    n += config_.layer_sizes[l] * config_.layer_sizes[l + 1] +
         config_.layer_sizes[l + 1];
  }
  return n;
}

std::vector<Matrix> Mlp::forward_all(const Matrix& inputs) const {
  HETSCHED_REQUIRE(inputs.cols() == input_size());
  std::vector<Matrix> activations;
  activations.reserve(weights_.size() + 1);
  activations.push_back(inputs);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix z = activations.back().matmul(weights_[l]);
    z.add_row_vector(biases_[l]);
    const bool last = l + 1 == weights_.size();
    activate_inplace(last ? config_.output_activation
                          : config_.hidden_activation,
                     z);
    activations.push_back(std::move(z));
  }
  return activations;
}

Matrix Mlp::predict(const Matrix& inputs) const {
  return forward_all(inputs).back();
}

std::vector<double> Mlp::predict_one(std::span<const double> input) const {
  HETSCHED_REQUIRE(input.size() == input_size());
  Matrix m(1, input.size());
  for (std::size_t c = 0; c < input.size(); ++c) {
    m.at(0, c) = input[c];
  }
  const Matrix out = predict(m);
  return std::vector<double>(out.row(0).begin(), out.row(0).end());
}

void Mlp::train_batch(const Matrix& inputs, const Matrix& targets,
                      double learning_rate, double momentum) {
  HETSCHED_REQUIRE(inputs.rows() == targets.rows());
  HETSCHED_REQUIRE(inputs.rows() > 0);
  HETSCHED_REQUIRE(targets.cols() == output_size());
  HETSCHED_REQUIRE(learning_rate > 0.0);
  HETSCHED_REQUIRE(momentum >= 0.0 && momentum < 1.0);

  const std::vector<Matrix> acts = forward_all(inputs);
  const Matrix& output = acts.back();
  const double n = static_cast<double>(inputs.rows());

  // Loss: MSE = mean((out - target)^2); dL/dout = 2 (out - target) / n.
  Matrix delta = output;
  delta.add_inplace(targets, -1.0);
  delta.scale_inplace(2.0 / (n * static_cast<double>(output.cols())));

  // Backward through the output activation.
  delta.hadamard_inplace(
      activation_grad(config_.output_activation, output));

  for (std::size_t l = weights_.size(); l-- > 0;) {
    const Matrix& layer_input = acts[l];
    const Matrix grad_w = layer_input.transposed_matmul(delta);
    const Matrix grad_b = delta.column_sums();

    Matrix next_delta;
    if (l > 0) {
      next_delta = delta.matmul_transposed(weights_[l]);
      next_delta.hadamard_inplace(
          activation_grad(config_.hidden_activation, acts[l]));
    }

    velocity_w_[l].scale_inplace(momentum).add_inplace(grad_w,
                                                       -learning_rate);
    velocity_b_[l].scale_inplace(momentum).add_inplace(grad_b,
                                                       -learning_rate);
    weights_[l].add_inplace(velocity_w_[l]);
    biases_[l].add_inplace(velocity_b_[l]);

    delta = std::move(next_delta);
  }
}

}  // namespace hetsched
