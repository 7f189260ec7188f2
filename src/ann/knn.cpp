#include "ann/knn.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.hpp"

namespace hetsched {

KnnRegressor::KnnRegressor(KnnConfig config) : config_(config) {
  HETSCHED_REQUIRE(config_.k > 0);
  HETSCHED_REQUIRE(config_.distance_power >= 0.0);
}

void KnnRegressor::fit(const Dataset& train, Rng& rng) {
  (void)rng;
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  HETSCHED_REQUIRE(train.targets.cols() == 1);
  features_ = train.features;
  targets_ = train.targets;
  fitted_ = true;
}

double KnnRegressor::predict(std::span<const double> features) const {
  HETSCHED_REQUIRE(fitted_);
  HETSCHED_REQUIRE(features.size() == features_.cols());

  std::vector<std::pair<double, std::size_t>> distances;
  distances.reserve(features_.rows());
  for (std::size_t r = 0; r < features_.rows(); ++r) {
    double d2 = 0.0;
    for (std::size_t c = 0; c < features.size(); ++c) {
      const double diff = features_.at(r, c) - features[c];
      d2 += diff * diff;
    }
    distances.emplace_back(d2, r);
  }
  const std::size_t k = std::min(config_.k, distances.size());
  std::partial_sort(distances.begin(), distances.begin() + k,
                    distances.end());

  // Exact match short-circuits (infinite weight).
  if (distances.front().first == 0.0) {
    return targets_.at(distances.front().second, 0);
  }
  double weight_sum = 0.0;
  double value = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double dist = std::sqrt(distances[i].first);
    const double w = config_.distance_power == 0.0
                         ? 1.0
                         : 1.0 / std::pow(dist, config_.distance_power);
    weight_sum += w;
    value += w * targets_.at(distances[i].second, 0);
  }
  return value / weight_sum;
}

}  // namespace hetsched
