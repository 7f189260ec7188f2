#include "ann/ridge.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace hetsched {

std::vector<double> solve_spd(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n) {
  HETSCHED_REQUIRE(a.size() == n * n);
  HETSCHED_REQUIRE(b.size() == n);

  // Cholesky: A = L L^T, L lower triangular.
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) {
        sum -= l[i * n + k] * l[j * n + k];
      }
      if (i == j) {
        HETSCHED_REQUIRE(sum > 0.0 && "matrix must be positive definite");
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * y[k];
    y[i] = sum / l[i * n + i];
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * x[k];
    x[i] = sum / l[i * n + i];
  }
  return x;
}

RidgeRegressor::RidgeRegressor(RidgeConfig config) : config_(config) {
  HETSCHED_REQUIRE(config_.lambda >= 0.0);
}

void RidgeRegressor::fit(const Dataset& train, Rng& rng) {
  (void)rng;
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  HETSCHED_REQUIRE(train.targets.cols() == 1);

  const std::size_t d = train.feature_count();
  const std::size_t n = d + 1;  // + bias column

  // Normal equations on the bias-augmented design matrix:
  //   (X^T X + lambda I') w = X^T y,  I' zeroing the bias entry.
  std::vector<double> xtx(n * n, 0.0);
  std::vector<double> xty(n, 0.0);
  auto x_at = [&](std::size_t row, std::size_t col) {
    return col < d ? train.features.at(row, col) : 1.0;
  };
  for (std::size_t r = 0; r < train.size(); ++r) {
    const double t = train.targets.at(r, 0);
    for (std::size_t i = 0; i < n; ++i) {
      xty[i] += x_at(r, i) * t;
      for (std::size_t j = 0; j < n; ++j) {
        xtx[i * n + j] += x_at(r, i) * x_at(r, j);
      }
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    xtx[i * n + i] += config_.lambda;
  }
  // A tiny jitter on the bias keeps the system positive definite even for
  // degenerate inputs.
  xtx[d * n + d] += 1e-12;

  weights_ = solve_spd(xtx, xty, n);
  fitted_ = true;
}

double RidgeRegressor::predict(std::span<const double> features) const {
  HETSCHED_REQUIRE(fitted_);
  HETSCHED_REQUIRE(features.size() + 1 == weights_.size());
  double value = weights_.back();  // bias
  for (std::size_t i = 0; i < features.size(); ++i) {
    value += weights_[i] * features[i];
  }
  return value;
}

}  // namespace hetsched
