// Common interface for the regression models behind the best-size
// predictor. The paper evaluates an ANN and names "evaluating different
// machine learning techniques" as future work; this interface lets the
// scheduler pipeline (feature selection → scaling → model → snap) run any
// of them interchangeably: the bagged MLP, k-nearest-neighbours, a CART
// regression tree, and ridge regression.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "ann/dataset.hpp"

namespace hetsched {

class Regressor {
 public:
  virtual ~Regressor() = default;

  virtual std::string_view name() const = 0;

  // Fits on (already selected/scaled) training data. `rng` drives any
  // stochastic element (weight init, tie breaking).
  virtual void fit(const Dataset& train, Rng& rng) = 0;

  // Predicts the (continuous) target for one feature row.
  virtual double predict(std::span<const double> features) const = 0;

  bool fitted() const { return fitted_; }

 protected:
  bool fitted_ = false;
};

}  // namespace hetsched
