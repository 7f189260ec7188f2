// Dense row-major matrix: the ANN's weights, biases and datasets. The nets
// are tiny ({10,18,5,1}); Mlp's forward pass and training step run flat
// loops over flat() storage, and the algebra ops here are what the tests
// build their reference computations from.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hetsched {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(
      const std::vector<std::vector<double>>& rows);

  // Xavier/Glorot-uniform initialisation for a (fan_in x fan_out) weight
  // matrix.
  static Matrix xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) {
    HETSCHED_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    HETSCHED_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    HETSCHED_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    HETSCHED_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  // out = this * other (zero entries of `this` skipped)
  Matrix matmul(const Matrix& other) const;
  Matrix transposed() const;

  Matrix& add_inplace(const Matrix& other, double scale = 1.0);
  Matrix& scale_inplace(double k);
  // Adds `bias` (1 x cols) to every row.
  Matrix& add_row_vector(const Matrix& bias);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace hetsched
