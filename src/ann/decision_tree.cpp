#include "ann/decision_tree.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

double mean_target(const Dataset& data,
                   const std::vector<std::size_t>& rows) {
  double sum = 0.0;
  for (std::size_t r : rows) sum += data.targets.at(r, 0);
  return sum / static_cast<double>(rows.size());
}

double squared_error(const Dataset& data,
                     const std::vector<std::size_t>& rows) {
  const double mean = mean_target(data, rows);
  double acc = 0.0;
  for (std::size_t r : rows) {
    const double d = data.targets.at(r, 0) - mean;
    acc += d * d;
  }
  return acc;
}

}  // namespace

DecisionTreeRegressor::DecisionTreeRegressor(DecisionTreeConfig config)
    : config_(config) {
  HETSCHED_REQUIRE(config_.max_depth >= 1);
  HETSCHED_REQUIRE(config_.min_samples_leaf >= 1);
}

void DecisionTreeRegressor::fit(const Dataset& train, Rng& rng) {
  (void)rng;
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  HETSCHED_REQUIRE(train.targets.cols() == 1);
  nodes_.clear();
  std::vector<std::size_t> rows(train.size());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  build(train, rows, 0);
  fitted_ = true;
}

std::int32_t DecisionTreeRegressor::build(const Dataset& data,
                                          std::vector<std::size_t>& rows,
                                          std::size_t depth) {
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(index)].value = mean_target(data, rows);

  if (depth >= config_.max_depth ||
      rows.size() < 2 * config_.min_samples_leaf) {
    return index;
  }

  const double parent_error = squared_error(data, rows);
  double best_gain = config_.min_impurity_decrease;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;

  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < data.feature_count(); ++f) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) {
                return data.features.at(a, f) < data.features.at(b, f);
              });
    // Prefix sums over the sorted order for O(n) split evaluation.
    double left_sum = 0.0, left_sq = 0.0;
    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t r : sorted) {
      const double t = data.targets.at(r, 0);
      total_sum += t;
      total_sq += t * t;
    }
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double t = data.targets.at(sorted[i], 0);
      left_sum += t;
      left_sq += t * t;
      const double x_here = data.features.at(sorted[i], f);
      const double x_next = data.features.at(sorted[i + 1], f);
      if (x_here == x_next) continue;  // cannot split between equal values
      const std::size_t n_left = i + 1;
      const std::size_t n_right = sorted.size() - n_left;
      if (n_left < config_.min_samples_leaf ||
          n_right < config_.min_samples_leaf) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double err_left =
          left_sq - left_sum * left_sum / static_cast<double>(n_left);
      const double err_right =
          right_sq - right_sum * right_sum / static_cast<double>(n_right);
      const double gain = parent_error - err_left - err_right;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = (x_here + x_next) / 2.0;
      }
    }
  }

  if (best_gain <= config_.min_impurity_decrease) {
    return index;  // no useful split: stay a leaf
  }

  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows) {
    (data.features.at(r, best_feature) <= best_threshold ? left_rows
                                                         : right_rows)
        .push_back(r);
  }
  HETSCHED_ASSERT(!left_rows.empty() && !right_rows.empty());

  const std::int32_t left = build(data, left_rows, depth + 1);
  const std::int32_t right = build(data, right_rows, depth + 1);
  Node& node = nodes_[static_cast<std::size_t>(index)];
  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return index;
}

double DecisionTreeRegressor::predict(
    std::span<const double> features) const {
  HETSCHED_REQUIRE(fitted_);
  HETSCHED_REQUIRE(!nodes_.empty());
  std::size_t index = 0;
  for (;;) {
    const Node& node = nodes_[index];
    if (node.is_leaf) return node.value;
    HETSCHED_ASSERT(node.feature < features.size());
    index = static_cast<std::size_t>(
        features[node.feature] <= node.threshold ? node.left : node.right);
  }
}

std::size_t DecisionTreeRegressor::depth() const {
  HETSCHED_REQUIRE(fitted_);
  // Iterative depth computation over the implicit tree.
  std::size_t max_depth = 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& node = nodes_[index];
    if (!node.is_leaf) {
      stack.push_back({static_cast<std::size_t>(node.left), depth + 1});
      stack.push_back({static_cast<std::size_t>(node.right), depth + 1});
    }
  }
  return max_depth;
}

std::size_t DecisionTreeRegressor::root_feature() const {
  HETSCHED_REQUIRE(fitted_);
  if (nodes_.front().is_leaf) return static_cast<std::size_t>(-1);
  return nodes_.front().feature;
}

}  // namespace hetsched
