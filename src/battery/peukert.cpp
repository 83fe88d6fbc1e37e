#include "battery/peukert.hpp"

#include <cmath>
#include <stdexcept>

namespace bas::bat {

PeukertBattery::PeukertBattery(PeukertParams params) : params_(params) {
  if (!(params_.capacity_c > 0.0) || params_.exponent < 1.0 ||
      !(params_.reference_current_a > 0.0)) {
    throw std::invalid_argument("PeukertBattery: bad parameters");
  }
  exponent_minus_one_ = params_.exponent - 1.0;
}

bool PeukertBattery::empty() const {
  return consumed_c_ >= params_.capacity_c;
}

double PeukertBattery::state_of_charge() const {
  return 1.0 - consumed_c_ / params_.capacity_c;
}

std::unique_ptr<Battery> PeukertBattery::fresh_clone() const {
  return std::make_unique<PeukertBattery>(params_);
}

double PeukertBattery::effective_rate(double current_a) const {
  const double ratio = std::max(1.0, current_a / params_.reference_current_a);
  // pow(1, y) is exactly 1 (IEC 60559), so sub-reference currents can
  // skip the call without perturbing a bit.
  return ratio == 1.0 ? current_a
                      : current_a * std::pow(ratio, exponent_minus_one_);
}

double PeukertBattery::do_sigma_after(double current_a, double t_s) const {
  if (current_a <= 0.0) {
    // No recovery and idling is free: depletion is simply the present
    // consumed fraction, whatever t.
    return consumed_c_ / params_.capacity_c;
  }
  return (consumed_c_ + effective_rate(current_a) * t_s) /
         params_.capacity_c;
}

double PeukertBattery::do_draw(double current_a, double dt_s) {
  if (current_a <= 0.0) {
    return dt_s;  // Peukert has no recovery; idling is simply free
  }
  const double rate = effective_rate(current_a);
  const double head_room = params_.capacity_c - consumed_c_;
  if (rate * dt_s <= head_room) {
    consumed_c_ += rate * dt_s;
    return dt_s;
  }
  const double sustained = head_room / rate;
  consumed_c_ = params_.capacity_c;
  return sustained;
}

void PeukertBattery::do_reset() { consumed_c_ = 0.0; }

}  // namespace bas::bat
