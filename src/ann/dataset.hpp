// Supervised dataset handling: feature matrix + targets, and the
// stratified train/validation/test split behind the paper's 70/15/15.
#pragma once

#include <vector>

#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace hetsched {

struct Dataset {
  Matrix features;  // n x d
  Matrix targets;   // n x k (k = 1 for the cache-size regression)
  // Per-row group key (which kernel produced the row); split_dataset
  // splits each group separately. Empty means ungrouped, which models
  // can fit but split_dataset rejects.
  std::vector<std::size_t> groups;

  std::size_t size() const { return features.rows(); }
  std::size_t feature_count() const { return features.cols(); }

  bool consistent() const {
    return features.rows() == targets.rows() &&
           (groups.empty() || groups.size() == features.rows());
  }

  // Row subset (indices may repeat — used by bagging resamples).
  Dataset subset(const std::vector<std::size_t>& indices) const;
};

struct DataSplit {
  Dataset train;
  Dataset validation;
  Dataset test;
};

// Shuffles each group's rows (deterministically via rng) and splits them
// by the given fractions, the remainder going to test, so every group
// contributes rows to the training partition — otherwise a small suite
// can land all instances of one application outside the training set
// and the predictor never learns that behaviour class. Requires
// data.groups to be populated.
DataSplit split_dataset(const Dataset& data, double train_fraction,
                        double validation_fraction, Rng& rng);

// Standardises features to zero mean / unit variance. Fitted on training
// data, applied to everything — constant features pass through unchanged.
class StandardScaler {
 public:
  void fit(const Matrix& features);
  // Reconstructs a fitted scaler from saved moments (deserialisation).
  static StandardScaler from_moments(std::vector<double> means,
                                     std::vector<double> stddevs);
  Matrix transform(const Matrix& features) const;
  std::vector<double> transform_row(std::span<const double> row) const;

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

}  // namespace hetsched
