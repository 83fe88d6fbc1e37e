#include "sched/feasibility.hpp"

namespace bas::sched {

bool feasibility_check(std::span<const dvs::GraphStatus> statuses,
                       std::span<const int> edf_order, int candidate_pos,
                       double candidate_wc_cycles, double fref_hz,
                       double now) noexcept {
  // Position 0 (most imminent graph) is plain EDF: nothing to check.
  double prefix_wc_cycles = 0.0;
  for (int j = 0; j < candidate_pos; ++j) {
    const dvs::GraphStatus& g = statuses[static_cast<std::size_t>(
        edf_order[static_cast<std::size_t>(j)])];
    prefix_wc_cycles += g.remaining_wc_cycles;
    const double window_s = g.abs_deadline_s - now;
    if (window_s < 0.0) {
      return false;
    }
    if (prefix_wc_cycles + candidate_wc_cycles > fref_hz * window_s) {
      return false;
    }
  }
  return true;
}

}  // namespace bas::sched
