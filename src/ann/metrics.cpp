#include "ann/metrics.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace hetsched {

double mean_squared_error(const Matrix& predictions, const Matrix& targets) {
  HETSCHED_REQUIRE(predictions.rows() == targets.rows());
  HETSCHED_REQUIRE(predictions.cols() == targets.cols());
  HETSCHED_REQUIRE(predictions.rows() > 0);
  double acc = 0.0;
  for (std::size_t r = 0; r < predictions.rows(); ++r) {
    for (std::size_t c = 0; c < predictions.cols(); ++c) {
      const double d = predictions.at(r, c) - targets.at(r, c);
      acc += d * d;
    }
  }
  return acc / static_cast<double>(predictions.rows() * predictions.cols());
}

double snap_to_class(double value, std::span<const double> classes) {
  HETSCHED_REQUIRE(!classes.empty());
  double best = classes[0];
  double best_dist = std::abs(value - classes[0]);
  for (double c : classes.subspan(1)) {
    const double dist = std::abs(value - c);
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

double snapped_accuracy(const Matrix& predictions, const Matrix& targets,
                        std::span<const double> classes) {
  HETSCHED_REQUIRE(predictions.rows() == targets.rows());
  HETSCHED_REQUIRE(predictions.cols() == 1 && targets.cols() == 1);
  HETSCHED_REQUIRE(predictions.rows() > 0);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < predictions.rows(); ++r) {
    if (snap_to_class(predictions.at(r, 0), classes) ==
        snap_to_class(targets.at(r, 0), classes)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(predictions.rows());
}

}  // namespace hetsched
