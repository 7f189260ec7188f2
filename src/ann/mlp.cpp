#include "ann/mlp.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

// Doubles one row takes across every layer's activations, input included.
std::size_t activation_width(const MlpConfig& config) {
  return std::accumulate(config.layer_sizes.begin(),
                         config.layer_sizes.end(), std::size_t{0});
}

}  // namespace

TrainScratch::TrainScratch(const MlpConfig& config, std::size_t rows)
    : layer_sizes(config.layer_sizes), max_rows(rows) {
  HETSCHED_REQUIRE(layer_sizes.size() >= 2);
  std::size_t widest = 0;         // a delta row: widest layer past the input
  std::size_t largest_layer = 0;  // most weights in one layer
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    widest = std::max(widest, layer_sizes[l + 1]);
    largest_layer =
        std::max(largest_layer, layer_sizes[l] * layer_sizes[l + 1]);
  }
  acts.resize(max_rows * activation_width(config));
  delta.resize(max_rows * widest);
  next_delta.resize(max_rows * widest);
  grad_w.resize(largest_layer);
  grad_b.resize(widest);
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    velocity_w.emplace_back(layer_sizes[l], layer_sizes[l + 1]);
    velocity_b.emplace_back(1, layer_sizes[l + 1]);
  }
}

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

void Mlp::forward(std::span<double> acts, std::size_t rows) const {
  const std::vector<std::size_t>& sizes = config_.layer_sizes;
  double* in = acts.data();
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const std::size_t fan_in = sizes[l];
    const std::size_t fan_out = sizes[l + 1];
    double* const out = in + rows * fan_in;
    const double* const w = weights_[l].flat().data();
    const double* const b = biases_[l].flat().data();
    for (std::size_t r = 0; r < rows; ++r) {
      const double* const x = in + r * fan_in;
      double* const z = out + r * fan_out;
      std::fill(z, z + fan_out, 0.0);
      for (std::size_t k = 0; k < fan_in; ++k) {
        const double a = x[k];
        if (a == 0.0) continue;
        const double* const w_row = w + k * fan_out;
        for (std::size_t j = 0; j < fan_out; ++j) z[j] += a * w_row[j];
      }
      for (std::size_t j = 0; j < fan_out; ++j) z[j] += b[j];
    }
    activate_inplace(l + 1 == weights_.size() ? config_.output_activation
                                              : config_.hidden_activation,
                     {out, rows * fan_out});
    in = out;
  }
}

Matrix Mlp::predict(const Matrix& inputs) const {
  HETSCHED_REQUIRE(inputs.cols() == input_size());
  const std::size_t rows = inputs.rows();
  std::vector<double> acts(rows * activation_width(config_));
  std::copy(inputs.flat().begin(), inputs.flat().end(), acts.begin());
  forward(acts, rows);
  Matrix out(rows, output_size());
  std::copy(acts.end() - static_cast<std::ptrdiff_t>(out.flat().size()),
            acts.end(), out.flat().begin());
  return out;
}

std::vector<double> Mlp::predict_one(std::span<const double> input) const {
  HETSCHED_REQUIRE(input.size() == input_size());
  std::vector<double> acts(activation_width(config_));
  std::copy(input.begin(), input.end(), acts.begin());
  forward(acts, 1);
  return std::vector<double>(
      acts.end() - static_cast<std::ptrdiff_t>(output_size()), acts.end());
}

// The floating-point order is fixed, so trained weights repeat bit for
// bit (the golden snapshot pins them): every product sum starts at 0 and
// skips zero inputs, except delta·W^T, which skips nothing; the bias
// comes after the sum; gradients add the batch rows in order; the update
// is v = m·v + (-lr)·g, then w += v.
void Mlp::train_batch(const Dataset& data, std::span<const std::size_t> rows,
                      double learning_rate, double momentum,
                      TrainScratch& scratch) {
  HETSCHED_REQUIRE(data.consistent());
  HETSCHED_REQUIRE(data.feature_count() == input_size());
  HETSCHED_REQUIRE(data.targets.cols() == output_size());
  HETSCHED_REQUIRE(!rows.empty() && rows.size() <= scratch.max_rows);
  HETSCHED_REQUIRE(scratch.layer_sizes == config_.layer_sizes);
  HETSCHED_REQUIRE(learning_rate > 0.0);
  HETSCHED_REQUIRE(momentum >= 0.0 && momentum < 1.0);

  const std::vector<std::size_t>& sizes = config_.layer_sizes;
  const std::size_t n = rows.size();
  double* const acts = scratch.acts.data();
  for (std::size_t r = 0; r < n; ++r) {
    HETSCHED_REQUIRE(rows[r] < data.size());
    const std::span<const double> x = data.features.row(rows[r]);
    std::copy(x.begin(), x.end(), acts + r * sizes.front());
  }
  forward(scratch.acts, n);

  // Offset of the output block; walking down, layer l's block starts
  // n * sizes[l] doubles before layer l+1's.
  std::size_t offset = n * (activation_width(config_) - output_size());

  // Loss: MSE = mean((out - target)^2); dL/dout = 2 (out - target) /
  // (n * outputs), then back through the output activation.
  const std::size_t outputs = output_size();
  const double loss_scale =
      2.0 / (static_cast<double>(n) * static_cast<double>(outputs));
  const double* const out = acts + offset;
  double* delta = scratch.delta.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const double> target = data.targets.row(rows[r]);
    for (std::size_t c = 0; c < outputs; ++c) {
      delta[r * outputs + c] =
          (out[r * outputs + c] - target[c]) * loss_scale;
    }
  }
  multiply_by_activation_grad(config_.output_activation, {delta, n * outputs},
                              {out, n * outputs});

  double* next_delta = scratch.next_delta.data();
  double* const grad_w = scratch.grad_w.data();
  double* const grad_b = scratch.grad_b.data();
  const auto update = [&](std::span<double> params, std::span<double> v,
                          const double* grad) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      v[i] *= momentum;
      v[i] += -learning_rate * grad[i];
      params[i] += v[i];
    }
  };
  for (std::size_t l = weights_.size(); l-- > 0;) {
    const std::size_t fan_in = sizes[l];
    const std::size_t fan_out = sizes[l + 1];
    offset -= n * fan_in;
    const double* const x = acts + offset;
    const double* const w = weights_[l].flat().data();

    std::fill(grad_w, grad_w + fan_in * fan_out, 0.0);
    std::fill(grad_b, grad_b + fan_out, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double* const d = delta + k * fan_out;
      for (std::size_t i = 0; i < fan_in; ++i) {
        const double a = x[k * fan_in + i];
        if (a == 0.0) continue;
        double* const g = grad_w + i * fan_out;
        for (std::size_t j = 0; j < fan_out; ++j) g[j] += a * d[j];
      }
      for (std::size_t j = 0; j < fan_out; ++j) grad_b[j] += d[j];
    }

    // The delta below this layer uses its weights before the update.
    if (l > 0) {
      for (std::size_t r = 0; r < n; ++r) {
        const double* const d = delta + r * fan_out;
        for (std::size_t i = 0; i < fan_in; ++i) {
          const double* const w_row = w + i * fan_out;
          double acc = 0.0;
          for (std::size_t j = 0; j < fan_out; ++j) acc += d[j] * w_row[j];
          next_delta[r * fan_in + i] = acc;
        }
      }
      multiply_by_activation_grad(config_.hidden_activation,
                                  {next_delta, n * fan_in}, {x, n * fan_in});
    }

    update(weights_[l].flat(), scratch.velocity_w[l].flat(), grad_w);
    update(biases_[l].flat(), scratch.velocity_b[l].flat(), grad_b);
    std::swap(delta, next_delta);
  }
}

}  // namespace hetsched
