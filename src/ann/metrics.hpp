// Regression / classification metrics for evaluating the predictor.
#pragma once

#include <span>

#include "ann/matrix.hpp"

namespace hetsched {

double mean_squared_error(const Matrix& predictions, const Matrix& targets);

// Fraction of rows where `snap(prediction)` equals `snap(target)`, with
// snap() mapping a continuous value to the nearest element of `classes`.
double snapped_accuracy(const Matrix& predictions, const Matrix& targets,
                        std::span<const double> classes);

// Nearest element of `classes` to `value`.
double snap_to_class(double value, std::span<const double> classes);

}  // namespace hetsched
