#include "battery/model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace bas::bat {

namespace {

// Entry-point argument checks, written so that NaN fails them: a NaN
// current or charge would otherwise empty a cell silently (or poison
// its state), and an infinite time would never finish stepping the
// stochastic cell's slots.
void require_amount(double x, const char* where, const char* what) {
  if (!(x >= 0.0)) {
    throw std::invalid_argument(std::string(where) + ": " + what +
                                " must be >= 0 (got " + std::to_string(x) +
                                ")");
  }
}

void require_time(double t, const char* where, const char* what) {
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument(std::string(where) + ": " + what +
                                " must be finite and >= 0 (got " +
                                std::to_string(t) + ")");
  }
}

}  // namespace

double Battery::draw(double current_a, double dt_s) {
  require_amount(current_a, "Battery::draw", "current_a");
  require_time(dt_s, "Battery::draw", "dt_s");
  if (dt_s == 0.0 || empty()) {
    return 0.0;
  }
  const double sustained = do_draw(current_a, dt_s);
  delivered_c_ += current_a * sustained;
  alive_s_ += sustained;
  return sustained;
}

double Battery::advance_interval(double charge_c, double dt_s) {
  require_amount(charge_c, "Battery::advance_interval", "charge_c");
  require_time(dt_s, "Battery::advance_interval", "dt_s");
  if (dt_s == 0.0 || empty()) {
    return 0.0;
  }
  // Same accounting as draw(), dispatched through the interval-advance
  // hook so a kernel can substitute its merged-window fast path.
  const double current_a = charge_c / dt_s;
  const double sustained = do_advance_interval(current_a, dt_s);
  delivered_c_ += current_a * sustained;
  alive_s_ += sustained;
  return sustained;
}

double Battery::sigma_after(double current_a, double t_s) const {
  require_amount(current_a, "Battery::sigma_after", "current_a");
  require_time(t_s, "Battery::sigma_after", "t_s");
  return do_sigma_after(current_a, t_s);
}

void Battery::reset() {
  do_reset();
  kc_.clear();
  delivered_c_ = 0.0;
  alive_s_ = 0.0;
}

}  // namespace bas::bat
