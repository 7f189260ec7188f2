// Ridge (L2-regularised linear) regression via the normal equations,
// solved with an in-house Cholesky factorisation. The linear baseline the
// related work's regression-model predictors [3][11][22] correspond to.
#pragma once

#include "ann/regressor.hpp"

namespace hetsched {

struct RidgeConfig {
  double lambda = 1e-3;  // regularisation strength (not applied to bias)
};

class RidgeRegressor final : public Regressor {
 public:
  explicit RidgeRegressor(RidgeConfig config = {});

  std::string_view name() const override { return "ridge"; }
  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const double> features) const override;

  // Learned weights (bias last), for tests.
  const std::vector<double>& coefficients() const { return weights_; }

 private:
  RidgeConfig config_;
  std::vector<double> weights_;  // d features + bias
};

// Solves A x = b for symmetric positive-definite A via Cholesky
// (A = L L^T). A is given row-major (n x n). Exposed for testing.
std::vector<double> solve_spd(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n);

}  // namespace hetsched
