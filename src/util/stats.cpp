#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bas::util {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Sample::mean() const noexcept {
  if (values_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double v : values_) {
    s += v;
  }
  return s / static_cast<double>(values_.size());
}

double Sample::stddev() const noexcept {
  if (values_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) {
    acc += (v - m) * (v - m);
  }
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Sample::min() const noexcept {
  if (values_.empty()) {
    return 0.0;
  }
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const noexcept {
  if (values_.empty()) {
    return 0.0;
  }
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::quantile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace bas::util
