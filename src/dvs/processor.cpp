#include "dvs/processor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bas::dvs {

namespace {

// An infinite supply voltage or capacitance would price every current
// at 0 A or infinity; finiteness is checked with positivity.
bool finite_positive(double value) {
  return std::isfinite(value) && value > 0.0;
}

}  // namespace

Processor::Processor(std::vector<OperatingPoint> points, double vbat_v,
                     double converter_eta, double ceff_farad,
                     double idle_current_a)
    : points_(std::move(points)),
      vbat_v_(vbat_v),
      eta_(converter_eta),
      ceff_(ceff_farad),
      idle_current_a_(idle_current_a) {
  if (points_.empty()) {
    throw std::invalid_argument("Processor: no operating points");
  }
  for (const auto& op : points_) {
    if (!finite_positive(op.freq_hz) || !finite_positive(op.voltage_v)) {
      throw std::invalid_argument(
          "Processor: non-positive or non-finite operating point");
    }
  }
  if (!finite_positive(vbat_v_) || !(eta_ > 0.0) || eta_ > 1.0 ||
      !finite_positive(ceff_) || !(idle_current_a_ >= 0.0) ||
      !std::isfinite(idle_current_a_)) {
    throw std::invalid_argument("Processor: bad electrical parameters");
  }
  std::sort(points_.begin(), points_.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.freq_hz < b.freq_hz;
            });
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].freq_hz == points_[i - 1].freq_hz) {
      throw std::invalid_argument("Processor: duplicate frequency");
    }
    if (points_[i].voltage_v < points_[i - 1].voltage_v) {
      throw std::invalid_argument(
          "Processor: voltage must be non-decreasing in frequency");
    }
  }
}

Processor Processor::continuous_ideal(double fmax_hz, double vmax_v,
                                      double vbat_v, double converter_eta,
                                      double ceff_farad,
                                      double idle_current_a) {
  Processor p({{fmax_hz, vmax_v}}, vbat_v, converter_eta, ceff_farad,
              idle_current_a);
  p.continuous_ = true;
  return p;
}

Processor Processor::paper_default() {
  // (0.5 GHz, 3 V), (0.75 GHz, 4 V), (1.0 GHz, 5 V); 1.2 V NiMH rail.
  // Ceff = 7.776e-11 F makes the full-speed battery current 1.8 A, which
  // reproduces the paper's no-DVS anchor of ~1567 mAh / ~74 min at 70%
  // utilization on a 2000 mAh cell.
  return Processor({{0.5e9, 3.0}, {0.75e9, 4.0}, {1.0e9, 5.0}},
                   /*vbat_v=*/1.2, /*converter_eta=*/0.9,
                   /*ceff_farad=*/7.776e-11, /*idle_current_a=*/0.01);
}

double Processor::voltage_at(double freq_hz) const {
  if (continuous_) {
    const auto& anchor = points_.back();
    return anchor.voltage_v * freq_hz / anchor.freq_hz;
  }
  for (const auto& op : points_) {
    if (std::abs(op.freq_hz - freq_hz) <= 1e-6 * op.freq_hz) {
      return op.voltage_v;
    }
  }
  throw std::invalid_argument(
      "Processor::voltage_at: frequency is not an operating point");
}

double Processor::core_power_w(const OperatingPoint& op) const noexcept {
  return ceff_ * op.voltage_v * op.voltage_v * op.freq_hz;
}

double Processor::battery_current_a(const OperatingPoint& op) const noexcept {
  return core_power_w(op) / (eta_ * vbat_v_);
}

double Processor::energy_per_cycle_j(const OperatingPoint& op) const noexcept {
  return ceff_ * op.voltage_v * op.voltage_v;
}

}  // namespace bas::dvs
