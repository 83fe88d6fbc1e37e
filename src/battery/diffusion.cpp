#include "battery/diffusion.hpp"

#include <cmath>
#include <stdexcept>

// The sigma accumulation stays scalar, in term order: a vectorized
// reduction would reassociate the sum and break the byte-identity
// contract. The element-wise commit loop is a plain loop the compiler
// may vectorize; SIMD add/mul/div are IEEE-identical lane for lane.

namespace bas::bat {

DiffusionParams DiffusionParams::paper_aaa_nimh() {
  DiffusionParams p;
  p.alpha_c = to_coulombs(2000.0);
  p.beta_squared = 4.0e-3;
  p.series_terms = 10;
  return p;
}

DiffusionBattery::DiffusionBattery(DiffusionParams params) : params_(params) {
  if (!(params_.alpha_c > 0.0) || !(params_.beta_squared > 0.0) ||
      params_.series_terms < 1) {
    throw std::invalid_argument("DiffusionBattery: bad parameters");
  }
  terms_ = static_cast<std::size_t>(params_.series_terms);
  soa_.assign(3 * terms_, 0.0);
  double* r = soa_.data();
  for (int m = 1; m <= params_.series_terms; ++m) {
    // Same expression the per-call formulas evaluated, so the table
    // holds bit-identical values.
    r[static_cast<std::size_t>(m - 1)] = params_.beta_squared * m * m;
  }
}

bool DiffusionBattery::empty() const { return dead_; }

double DiffusionBattery::unavailable_c() const {
  const double* s = s_lane();
  double total = 0.0;
  for (std::size_t i = 0; i < terms_; ++i) {
    total += s[i];
  }
  return 2.0 * total;
}

double DiffusionBattery::apparent_charge_c() const {
  return drawn_c_ + unavailable_c();
}

double DiffusionBattery::state_of_charge() const {
  // Charge physically left in the cell, ignoring the transient term.
  return std::max(0.0, 1.0 - drawn_c_ / params_.alpha_c);
}

std::unique_ptr<Battery> DiffusionBattery::fresh_clone() const {
  return std::make_unique<DiffusionBattery>(params_);
}

double DiffusionBattery::sigma_after_c(double current_a, double t) const {
  // Strength-reduced decays: x = e^{-β²t}; x^{m²} = x^{(m-1)²}·x^{2m-1}
  // — one exp for the whole series. The recurrence itself is a serial
  // dependence chain, so it stays scalar by construction.
  ++kc_.exp_calls;
  const double x = std::exp(-params_.beta_squared * t);
  const double x_sq = x * x;
  double* d = decay();
  double odd = x;  // x^{2m-1}
  double dm = x;   // x^{m²}
  for (std::size_t i = 0; i < terms_; ++i) {
    d[i] = dm;
    odd *= x_sq;
    dm *= odd;
  }
  const double* r = rates();
  const double* s = s_lane();
  double sigma = drawn_c_ + current_a * t;
  for (std::size_t i = 0; i < terms_; ++i) {
    sigma += 2.0 * (s[i] * d[i] + current_a * (1.0 - d[i]) / r[i]);
  }
  return sigma;
}

void DiffusionBattery::advance(double current_a, double t) {
  drawn_c_ += current_a * t;
  const double* r = rates();
  const double* d = decay();
  double* s = s_lane();
  for (std::size_t i = 0; i < terms_; ++i) {
    s[i] = s[i] * d[i] + current_a * (1.0 - d[i]) / r[i];
  }
}

double DiffusionBattery::do_draw(double current_a, double dt_s) {
  if (sigma_after_c(current_a, dt_s) < params_.alpha_c) {
    advance(current_a, dt_s);
    return dt_s;
  }
  // Cutoff inside the segment. While current flows, sigma is strictly
  // increasing in t, so bisection finds the crossing.
  double lo = 0.0;
  double hi = dt_s;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sigma_after_c(current_a, mid) < params_.alpha_c) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Refill the decay lane at the committed crossing (the last probe may
  // have evaluated hi) before advancing the state to it.
  sigma_after_c(current_a, lo);
  advance(current_a, lo);
  dead_ = true;
  return lo;
}

double DiffusionBattery::do_sigma_after(double current_a, double t_s) const {
  return sigma_after_c(current_a, t_s) / params_.alpha_c;
}

void DiffusionBattery::do_reset() {
  double* s = s_lane();
  for (std::size_t i = 0; i < terms_; ++i) {
    s[i] = 0.0;
  }
  drawn_c_ = 0.0;
  dead_ = false;
}

}  // namespace bas::bat
