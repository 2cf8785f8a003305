// Streaming statistics and scaling-fit helpers for the benchmark harnesses.
//
// The paper's results are asymptotic shapes (deviations ~ P*T_inf^2, misses ~
// C*t*T_inf, ...). Benches validate shapes by (a) reporting measured/predicted
// ratios across a sweep and (b) fitting log-log slopes; both live here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wsf::support {

/// Welford-style streaming accumulator: mean / variance / min / max without
/// storing samples.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Result of an ordinary least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 1 means a perfect fit.
  double r2 = 0.0;
};

/// Least-squares fit over paired samples. Requires xs.size() == ys.size() and
/// at least two points.
LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// Fits y = a * x^b by linear regression in log-log space and returns the
/// exponent b (slope) and log a (intercept). All samples must be positive.
/// This is how tests/test_claims.cpp checks growth exponents (e.g.
/// deviations vs k should have slope ~2 under Theorem 9's construction).
LinearFit fit_loglog(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// Median of a copy of the samples (empty input yields 0).
double median(std::vector<double> samples);

/// Convenience: arithmetic mean of a vector (empty input yields 0).
double mean_of(const std::vector<double>& samples);

}  // namespace wsf::support
