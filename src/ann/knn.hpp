// k-nearest-neighbours regression with inverse-distance weighting.
// The lazy-learning baseline: memorise the training rows, answer queries
// by the weighted mean of the k closest (Euclidean) neighbours.
#pragma once

#include "ann/regressor.hpp"

namespace hetsched {

struct KnnConfig {
  std::size_t k = 5;
  // Shepard weighting exponent; 0 gives the unweighted mean.
  double distance_power = 2.0;
};

class KnnRegressor final : public Regressor {
 public:
  explicit KnnRegressor(KnnConfig config = {});

  std::string_view name() const override { return "knn"; }
  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const double> features) const override;

  const KnnConfig& config() const { return config_; }

 private:
  KnnConfig config_;
  Matrix features_;
  Matrix targets_;
};

}  // namespace hetsched
