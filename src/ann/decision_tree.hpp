// CART regression tree: greedy binary splits minimising the weighted sum
// of child variances, with depth and leaf-size stopping rules. The
// interpretable baseline among the predictor models — its split features
// show *which* counters drive the best-size decision.
#pragma once

#include <cstdint>
#include <vector>

#include "ann/regressor.hpp"

namespace hetsched {

struct DecisionTreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 2;
  // A split must reduce total squared error by at least this much.
  double min_impurity_decrease = 1e-9;
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(DecisionTreeConfig config = {});

  std::string_view name() const override { return "decision-tree"; }
  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const double> features) const override;

  // Introspection: number of nodes and the root split (for tests/reports).
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  // Feature index of the root split; npos when the tree is a single leaf.
  std::size_t root_feature() const;

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;            // leaf prediction
    std::size_t feature = 0;       // internal: split feature
    double threshold = 0.0;        // internal: go left if x <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& rows,
                     std::size_t depth);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace hetsched
