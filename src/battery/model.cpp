#include "battery/model.hpp"

#include <stdexcept>

namespace bas::bat {

double Battery::draw(double current_a, double dt_s) {
  if (current_a < 0.0 || dt_s < 0.0) {
    throw std::invalid_argument("Battery::draw: negative current or time");
  }
  if (dt_s == 0.0 || empty()) {
    return 0.0;
  }
  const double sustained = do_draw(current_a, dt_s);
  delivered_c_ += current_a * sustained;
  alive_s_ += sustained;
  return sustained;
}

double Battery::advance_interval(double charge_c, double dt_s) {
  if (charge_c < 0.0 || dt_s < 0.0) {
    throw std::invalid_argument(
        "Battery::advance_interval: negative charge or time");
  }
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
  if (current_a < 0.0 || t_s < 0.0) {
    throw std::invalid_argument(
        "Battery::sigma_after: negative current or time");
  }
  return do_sigma_after(current_a, t_s);
}

void Battery::reset() {
  do_reset();
  kc_.clear();
  delivered_c_ = 0.0;
  alive_s_ = 0.0;
}

}  // namespace bas::bat
