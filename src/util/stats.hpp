#pragma once
// Small statistics toolkit used by the benchmark harnesses and tests.

#include <cstddef>
#include <vector>

namespace bas::util {

/// Streaming mean/variance accumulator (Welford's algorithm) with min/max.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch statistics over a stored sample (keeps values; offers quantiles).
class Sample {
 public:
  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const noexcept { return values_.size(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  /// Linear-interpolated quantile, q in [0,1]. Empty sample yields 0.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace bas::util
