#include "ann/mlp_regressor.hpp"

#include "util/contracts.hpp"

namespace hetsched {

BaggedMlpRegressor::BaggedMlpRegressor(BaggingConfig config)
    : config_(std::move(config)) {
  HETSCHED_REQUIRE(config_.net.layer_sizes.size() >= 2);
}

void BaggedMlpRegressor::fit(const Dataset& train, Rng& rng) {
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  config_.net.layer_sizes.front() = train.feature_count();
  ensemble_ = std::make_unique<BaggedEnsemble>(config_, train, rng);
  fitted_ = true;
}

double BaggedMlpRegressor::predict(std::span<const double> features) const {
  HETSCHED_REQUIRE(fitted_);
  return ensemble_->predict_one(features).front();
}

const BaggedEnsemble& BaggedMlpRegressor::ensemble() const {
  HETSCHED_REQUIRE(fitted_);
  return *ensemble_;
}

}  // namespace hetsched
