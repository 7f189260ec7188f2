#include "ann/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/contracts.hpp"

namespace hetsched {

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  HETSCHED_REQUIRE(consistent());
  Dataset out;
  out.features = Matrix(indices.size(), features.cols());
  out.targets = Matrix(indices.size(), targets.cols());
  if (!groups.empty()) out.groups.reserve(indices.size());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    HETSCHED_REQUIRE(indices[r] < size());
    for (std::size_t c = 0; c < features.cols(); ++c) {
      out.features.at(r, c) = features.at(indices[r], c);
    }
    for (std::size_t c = 0; c < targets.cols(); ++c) {
      out.targets.at(r, c) = targets.at(indices[r], c);
    }
    if (!groups.empty()) out.groups.push_back(groups[indices[r]]);
  }
  return out;
}

DataSplit split_dataset(const Dataset& data, double train_fraction,
                        double validation_fraction, Rng& rng) {
  HETSCHED_REQUIRE(data.consistent());
  HETSCHED_REQUIRE(!data.groups.empty());
  HETSCHED_REQUIRE(train_fraction > 0.0 && validation_fraction >= 0.0);
  HETSCHED_REQUIRE(train_fraction + validation_fraction <= 1.0);

  std::map<std::size_t, std::vector<std::size_t>> by_group;
  for (std::size_t r = 0; r < data.size(); ++r) {
    by_group[data.groups[r]].push_back(r);
  }

  std::vector<std::size_t> train_idx, val_idx, test_idx;
  for (auto& [group, rows] : by_group) {
    (void)group;
    rng.shuffle(rows);
    const auto n = rows.size();
    // At least one training row per group; round the rest.
    const auto n_train = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(train_fraction * static_cast<double>(n))));
    const auto n_val = std::min(
        n - n_train,
        static_cast<std::size_t>(std::llround(
            validation_fraction * static_cast<double>(n))));
    for (std::size_t i = 0; i < n; ++i) {
      if (i < n_train) {
        train_idx.push_back(rows[i]);
      } else if (i < n_train + n_val) {
        val_idx.push_back(rows[i]);
      } else {
        test_idx.push_back(rows[i]);
      }
    }
  }
  // Shuffle the merged partitions so group order does not leak into batch
  // order downstream.
  rng.shuffle(train_idx);
  rng.shuffle(val_idx);
  rng.shuffle(test_idx);

  DataSplit split;
  split.train = data.subset(train_idx);
  split.validation = data.subset(val_idx);
  split.test = data.subset(test_idx);
  return split;
}

void StandardScaler::fit(const Matrix& features) {
  HETSCHED_REQUIRE(features.rows() > 0);
  const std::size_t d = features.cols();
  means_.assign(d, 0.0);
  stddevs_.assign(d, 1.0);
  for (std::size_t c = 0; c < d; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < features.rows(); ++r) {
      sum += features.at(r, c);
    }
    means_[c] = sum / static_cast<double>(features.rows());
    double sq = 0.0;
    for (std::size_t r = 0; r < features.rows(); ++r) {
      const double diff = features.at(r, c) - means_[c];
      sq += diff * diff;
    }
    const double var = sq / static_cast<double>(features.rows());
    stddevs_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
}

StandardScaler StandardScaler::from_moments(std::vector<double> means,
                                            std::vector<double> stddevs) {
  HETSCHED_REQUIRE(!means.empty());
  HETSCHED_REQUIRE(means.size() == stddevs.size());
  for (double s : stddevs) {
    HETSCHED_REQUIRE(s > 0.0);
  }
  StandardScaler scaler;
  scaler.means_ = std::move(means);
  scaler.stddevs_ = std::move(stddevs);
  return scaler;
}

Matrix StandardScaler::transform(const Matrix& features) const {
  HETSCHED_REQUIRE(fitted());
  HETSCHED_REQUIRE(features.cols() == means_.size());
  Matrix out = features;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = (out.at(r, c) - means_[c]) / stddevs_[c];
    }
  }
  return out;
}

std::vector<double> StandardScaler::transform_row(
    std::span<const double> row) const {
  HETSCHED_REQUIRE(fitted());
  HETSCHED_REQUIRE(row.size() == means_.size());
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    out[c] = (row[c] - means_[c]) / stddevs_[c];
  }
  return out;
}

}  // namespace hetsched
