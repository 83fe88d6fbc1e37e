#include "battery/profile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bas::bat {

double LoadProfile::duration_s() const noexcept {
  double t = 0.0;
  for (const auto& s : segments_) {
    t += s.duration_s;
  }
  return t;
}

double LoadProfile::total_charge_c() const noexcept {
  double q = 0.0;
  for (const auto& s : segments_) {
    q += s.duration_s * s.current_a;
  }
  return q;
}

double LoadProfile::average_current_a() const noexcept {
  const double t = duration_s();
  return t > 0.0 ? total_charge_c() / t : 0.0;
}

std::size_t LoadProfile::increase_count(double tol) const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].current_a > segments_[i - 1].current_a + tol) {
      ++count;
    }
  }
  return count;
}

LoadProfile LoadProfile::reversed() const {
  LoadProfile out;
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    out.add(it->duration_s, it->current_a);
  }
  return out;
}

LoadProfile LoadProfile::constant(double current_a, double duration_s) {
  LoadProfile p;
  p.add(duration_s, current_a);
  return p;
}

double LoadProfile::discharge_into(Battery& battery) const {
  double survived = 0.0;
  for (const auto& s : segments_) {
    const double sustained = battery.draw(s.current_a, s.duration_s);
    survived += sustained;
    if (battery.empty()) {
      break;
    }
  }
  return survived;
}

double LoadProfile::discharge_repeating(Battery& battery,
                                        double max_time_s) const {
  if (empty()) {
    throw std::invalid_argument(
        "LoadProfile::discharge_repeating: empty profile");
  }
  double survived = 0.0;
  while (!battery.empty() && survived < max_time_s) {
    for (const auto& s : segments_) {
      const double slice =
          std::min(s.duration_s, std::max(0.0, max_time_s - survived));
      survived += battery.draw(s.current_a, slice);
      if (battery.empty() || survived >= max_time_s) {
        break;
      }
    }
  }
  return survived;
}

}  // namespace bas::bat
