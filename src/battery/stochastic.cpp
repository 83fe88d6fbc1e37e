#include "battery/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bas::bat {

StochasticBattery::StochasticBattery(StochasticParams params)
    : params_(params), rng_(params.seed) {
  if (!(params_.slot_s > 0.0) || !(params_.quantum_c > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad parameters");
  }
  if (!(params_.kinetics.capacity_c > 0.0) ||
      !(params_.kinetics.c_fraction > 0.0) ||
      params_.kinetics.c_fraction >= 1.0 || !(params_.kinetics.k_rate > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad kinetic parameters");
  }
  const double c = params_.kinetics.c_fraction;
  one_minus_c_ = 1.0 - c;
  flow_coeff_ = params_.kinetics.k_rate * c * (1.0 - c);
  do_reset();
}

bool StochasticBattery::empty() const { return dead_; }

double StochasticBattery::state_of_charge() const {
  return (y1_ + y2_) / params_.kinetics.capacity_c;
}

std::unique_ptr<Battery> StochasticBattery::fresh_clone() const {
  return std::make_unique<StochasticBattery>(params_);
}

double StochasticBattery::step_slot(double current_a, double dt) {
  const double c = params_.kinetics.c_fraction;

  // Kinetic drift between the wells for this slot, realized as an
  // integral number of quanta plus a Bernoulli fractional quantum so
  // that E[moved] matches KibamBattery's flow. The closed form's rate
  // constant k' relates to the height-difference flow by a c(1-c)
  // factor: dy1/dt = -I + k' * c * (1-c) * (h2 - h1), with the
  // k'·c·(1-c) product hoisted to the constructor.
  const double h1 = y1_ / c;
  const double h2 = y2_ / one_minus_c_;
  const double expected_transfer_c = flow_coeff_ * (h2 - h1) * dt;
  double transfer_c = 0.0;
  if (expected_transfer_c > 0.0) {
    const double quanta = expected_transfer_c / params_.quantum_c;
    double whole = std::floor(quanta);
    if (rng_.bernoulli(quanta - whole)) {
      whole += 1.0;
    }
    transfer_c = std::min(whole * params_.quantum_c, y2_);
  } else if (expected_transfer_c < 0.0) {
    // Available well above the bound well (cannot happen from a full
    // start under discharge, but keep the dynamics symmetric).
    const double quanta = -expected_transfer_c / params_.quantum_c;
    double whole = std::floor(quanta);
    if (rng_.bernoulli(quanta - whole)) {
      whole += 1.0;
    }
    transfer_c = -std::min(whole * params_.quantum_c, y1_);
  }

  const double demand_c = current_a * dt;
  if (y1_ + transfer_c <= demand_c) {
    // Dies within the slot; grant the time the available charge funds.
    const double sustained =
        current_a > 0.0 ? (y1_ + transfer_c) / current_a : dt;
    y2_ -= std::max(0.0, transfer_c);
    y1_ = 0.0;
    dead_ = true;
    return std::min(sustained, dt);
  }
  y1_ += transfer_c - demand_c;
  y2_ -= transfer_c;
  y2_ = std::max(0.0, y2_);
  return dt;
}

double StochasticBattery::do_sigma_after(double current_a, double t_s) const {
  const double k = params_.kinetics.k_rate;
  const double c = params_.kinetics.c_fraction;
  const double y0 = y1_ + y2_;
  ++kc_.exp_calls;
  const double e = std::exp(-k * t_s);
  // Manwell-McGowan closed form from (y1_, y2_) — the expectation of
  // the Bernoulli-quantized drift the slots realize.
  const double y1_end = y1_ * e + (y0 * k * c - current_a) * (1.0 - e) / k -
                        current_a * c * (k * t_s - 1.0 + e) / k;
  return 1.0 - y1_end / (c * params_.kinetics.capacity_c);
}

double StochasticBattery::do_draw(double current_a, double dt_s) {
  double sustained = 0.0;
  double remaining = dt_s;
  while (remaining > 0.0 && !dead_) {
    const double dt = std::min(params_.slot_s, remaining);
    sustained += step_slot(current_a, dt);
    remaining -= dt;
  }
  return sustained;
}

void StochasticBattery::do_reset() {
  y1_ = params_.kinetics.c_fraction * params_.kinetics.capacity_c;
  y2_ = (1.0 - params_.kinetics.c_fraction) * params_.kinetics.capacity_c;
  dead_ = false;
  rng_ = util::Rng(params_.seed);
}

}  // namespace bas::bat
