// Adapter exposing the paper's bagged-MLP ensemble through the generic
// Regressor interface. It is the model the best-size predictor trains
// for the paper (paper_model in core/predictor), so it competes with the
// alternative models in the future-work ML comparison on identical
// footing.
#pragma once

#include <memory>

#include "ann/bagging.hpp"
#include "ann/regressor.hpp"

namespace hetsched {

class BaggedMlpRegressor final : public Regressor {
 public:
  // The input-layer width in `config.net.layer_sizes` is overwritten at
  // fit() time from the training data.
  explicit BaggedMlpRegressor(BaggingConfig config = {});

  std::string_view name() const override { return "bagged-mlp"; }
  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const double> features) const override;

  const BaggedEnsemble& ensemble() const;

 private:
  BaggingConfig config_;
  std::unique_ptr<BaggedEnsemble> ensemble_;
};

}  // namespace hetsched
