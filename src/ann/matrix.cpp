#include "ann/matrix.hpp"

#include <cmath>

namespace hetsched {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  HETSCHED_REQUIRE(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HETSCHED_REQUIRE(rows[r].size() == m.cols_);
    for (std::size_t c = 0; c < m.cols_; ++c) {
      m.at(r, c) = rows[r][c];
    }
  }
  return m;
}

Matrix Matrix::xavier(std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  HETSCHED_REQUIRE(fan_in > 0 && fan_out > 0);
  Matrix m(fan_in, fan_out);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (double& v : m.data_) {
    v = rng.uniform(-limit, limit);
  }
  return m;
}

Matrix Matrix::matmul(const Matrix& other) const {
  HETSCHED_REQUIRE(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out.at(i, j) += a * other.at(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

Matrix& Matrix::add_inplace(const Matrix& other, double scale) {
  HETSCHED_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
  return *this;
}

Matrix& Matrix::scale_inplace(double k) {
  for (double& v : data_) v *= k;
  return *this;
}

Matrix& Matrix::add_row_vector(const Matrix& bias) {
  HETSCHED_REQUIRE(bias.rows_ == 1 && bias.cols_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      at(r, c) += bias.at(0, c);
    }
  }
  return *this;
}

}  // namespace hetsched
