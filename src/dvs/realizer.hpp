#pragma once
// Realization of an arbitrary reference frequency on a processor with a
// discrete set of operating points.
//
// DVS algorithms return a continuous fref, but "generally voltage
// scalable processors can run on a selected set of frequencies. It has
// been shown that using a linear combination of two adjacent available
// frequencies (fi < fref < fi+1) is optimal for realizing the running of
// the processor at fref" (paper §2, citing Gaujal-Navet-Walsh). This
// module computes that combination. The higher frequency is scheduled
// first within each slot so the instantaneous current profile stays
// non-increasing inside the slot (Guideline 1) and deadline safety never
// depends on the tail of the slot.

#include "dvs/processor.hpp"

namespace bas::dvs {

/// A realized frequency plan: run at `hi` for a `hi_fraction` share of
/// the slot's wall-clock time, then at `lo` for the remainder.
struct FreqPlan {
  OperatingPoint lo;
  OperatingPoint hi;
  /// Fraction of wall-clock time at `hi`, in [0, 1].
  double hi_fraction = 1.0;
  /// The effective (average) frequency delivered by the plan:
  /// hi_fraction * hi.f + (1 - hi_fraction) * lo.f.
  double effective_freq_hz = 0.0;

  bool single_level() const noexcept {
    return hi_fraction >= 1.0 || hi_fraction <= 0.0 ||
           lo.freq_hz == hi.freq_hz;
  }
};

/// Computes the optimal two-point mix delivering fref.
///  * fref <= fmin  -> constant fmin (cannot run slower; remaining slack
///    becomes idle time, which only EDF-without-DVS produces in practice);
///  * fref >= fmax  -> constant fmax;
///  * continuous processors -> exact single level at fref.
FreqPlan realize(const Processor& proc, double fref_hz);

/// Average core power (W) while executing under `plan`.
double plan_core_power_w(const Processor& proc, const FreqPlan& plan);

}  // namespace bas::dvs
