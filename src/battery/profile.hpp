#pragma once
// Load profiles: piecewise-constant current-vs-time traces.
//
// The simulator emits one of these per run; battery models consume them.
// The shape of this profile — not just its integral — determines how
// much charge a real battery delivers, which is the paper's core point.

#include <cmath>
#include <stdexcept>
#include <vector>

#include "battery/model.hpp"

namespace bas::bat {

struct Segment {
  double duration_s = 0.0;
  double current_a = 0.0;
};

class LoadProfile {
 public:
  LoadProfile() = default;

  /// Appends a segment; zero-duration segments are dropped, and a
  /// segment equal in current to the previous one (within 1e-12 A) is
  /// merged into it. Defined inline: the simulator calls this on every
  /// battery draw, and the merge path is a two-branch append.
  void add(double duration_s, double current_a) {
    if (duration_s < 0.0 || current_a < 0.0) {
      throw std::invalid_argument("LoadProfile::add: negative value");
    }
    if (duration_s == 0.0) {
      return;
    }
    if (!segments_.empty() &&
        std::abs(segments_.back().current_a - current_a) <= 1e-12) {
      segments_.back().duration_s += duration_s;
      return;
    }
    segments_.push_back(Segment{duration_s, current_a});
  }

  /// Pre-allocates room for `segments` entries (the simulator reserves
  /// ahead of a run so steady-state add() calls never reallocate).
  void reserve(std::size_t segments) { segments_.reserve(segments); }

  const std::vector<Segment>& segments() const noexcept { return segments_; }
  bool empty() const noexcept { return segments_.empty(); }
  std::size_t size() const noexcept { return segments_.size(); }

  double duration_s() const noexcept;
  /// Integral of current over time (C).
  double total_charge_c() const noexcept;
  double average_current_a() const noexcept;

  /// Counts current increases above `tol` between consecutive segments;
  /// a cheap proxy for how far a profile is from Guideline 1's
  /// non-increasing shape.
  std::size_t increase_count(double tol = 1e-9) const noexcept;

  /// The same segments in reverse order (turns a non-increasing profile
  /// into a non-decreasing one; used by the guideline benches).
  LoadProfile reversed() const;

  /// Constant-current profile.
  static LoadProfile constant(double current_a, double duration_s);

  /// Feeds the profile into `battery` once, stopping early if the cell
  /// dies. Returns the time survived within this profile.
  double discharge_into(Battery& battery) const;

  /// Feeds the profile into `battery` repeatedly (periodic workload)
  /// until the cell dies or `max_time_s` elapses. Returns survival time.
  double discharge_repeating(Battery& battery, double max_time_s) const;

 private:
  std::vector<Segment> segments_;
};

}  // namespace bas::bat
