// Small statistics toolkit: single-pass running moments (Welford), mean
// and correlation, used by feature selection, workload characterisation
// and the bench harnesses.
#pragma once

#include <cstddef>
#include <span>

namespace hetsched {

// Numerically stable running mean/variance/min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

double mean(std::span<const double> values);

// Pearson correlation; returns 0 when either side has zero variance.
double pearson(std::span<const double> x, std::span<const double> y);

}  // namespace hetsched
