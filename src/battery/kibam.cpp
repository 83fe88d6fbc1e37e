#include "battery/kibam.hpp"

#include <cmath>
#include <stdexcept>

namespace bas::bat {

KibamParams KibamParams::paper_aaa_nimh() {
  KibamParams p;
  p.capacity_c = to_coulombs(2000.0);  // 2000 mAh maximum capacity
  p.c_fraction = 0.625;
  p.k_rate = 4.5e-4;
  return p;
}

KibamBattery::KibamBattery(KibamParams params) : params_(params) {
  if (!(params_.capacity_c > 0.0) || !(params_.c_fraction > 0.0) ||
      params_.c_fraction >= 1.0 || !(params_.k_rate > 0.0)) {
    throw std::invalid_argument("KibamBattery: bad parameters");
  }
  do_reset();
}

bool KibamBattery::empty() const { return dead_; }

double KibamBattery::state_of_charge() const {
  return (y1_ + y2_) / params_.capacity_c;
}

std::unique_ptr<Battery> KibamBattery::fresh_clone() const {
  return std::make_unique<KibamBattery>(params_);
}

Wells wells_after(const KibamParams& p, double y1, double y2,
                  double current_a, double t, KernelCounters& kc) {
  const double k = p.k_rate;
  const double c = p.c_fraction;
  const double y0 = y1 + y2;
  ++kc.exp_calls;
  const double e = std::exp(-k * t);
  // Manwell-McGowan closed form for constant current I over [0, t].
  return {y1 * e + (y0 * k * c - current_a) * (1.0 - e) / k -
              current_a * c * (k * t - 1.0 + e) / k,
          y2 * e + y0 * (1.0 - c) * (1.0 - e) -
              current_a * (1.0 - c) * (k * t - 1.0 + e) / k};
}

double KibamBattery::do_sigma_after(double current_a, double t_s) const {
  // Empty when the available well drains: depletion 1 at y1 == 0.
  return 1.0 - wells_after(params_, y1_, y2_, current_a, t_s, kc_).y1 /
                   (params_.c_fraction * params_.capacity_c);
}

double KibamBattery::do_draw(double current_a, double dt_s) {
  Wells end = wells_after(params_, y1_, y2_, current_a, dt_s, kc_);
  if (end.y1 > 0.0) {
    y1_ = end.y1;
    y2_ = std::max(0.0, end.y2);
    return dt_s;
  }
  // The available well empties inside this segment: bisect for the
  // cutoff instant. y1 after t is continuous, with y1_ > 0 at t = 0.
  double lo = 0.0;
  double hi = dt_s;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (wells_after(params_, y1_, y2_, current_a, mid, kc_).y1 > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  end = wells_after(params_, y1_, y2_, current_a, lo, kc_);
  y2_ = std::max(0.0, end.y2);
  y1_ = 0.0;
  dead_ = true;
  return lo;
}

void KibamBattery::do_reset() {
  y1_ = params_.c_fraction * params_.capacity_c;
  y2_ = (1.0 - params_.c_fraction) * params_.capacity_c;
  dead_ = false;
}

}  // namespace bas::bat
