#pragma once
// Battery model interface (paper §3).
//
// All models consume a piecewise-constant current profile through
// draw(current, dt) and report when the cell can no longer sustain the
// load ("discharged" — which, for the non-ideal models, can happen while
// charge is still trapped inside the cell; that unextracted charge is
// exactly what battery-aware scheduling recovers).
//
// Accounting (delivered charge, alive time) is centralized here so every
// model reports the two quantities Table 2 compares: charge delivered
// (mAh) and battery lifetime.

#include <memory>
#include <string>

#include "battery/kernel_counters.hpp"

namespace bas::bat {

/// Coulombs per mAh.
inline constexpr double kCoulombsPerMah = 3.6;

inline constexpr double to_mah(double coulombs) {
  return coulombs / kCoulombsPerMah;
}
inline constexpr double to_coulombs(double mah) {
  return mah * kCoulombsPerMah;
}

class Battery {
 public:
  virtual ~Battery() = default;

  virtual std::string name() const = 0;

  /// Draws `current_a` for `dt_s` seconds (current_a >= 0, dt_s finite
  /// and >= 0; anything else, NaN included, throws
  /// std::invalid_argument).
  /// Returns the duration actually sustained: dt_s if the cell survived
  /// the whole interval, else the time at which it hit cutoff. Calling
  /// draw on an empty battery returns 0.
  double draw(double current_a, double dt_s);

  /// Interval advance for the event-driven simulator: consumes
  /// `charge_c` coulombs spread over `dt_s` seconds as one
  /// charge-equivalent constant-current draw (charge_c / dt_s for
  /// dt_s). Every kernel's do_draw already advances state in closed
  /// form over an arbitrary dt — diffusion evaluates its series once,
  /// KiBaM applies its single-exponential step, Peukert and the ideal
  /// cell are O(1) — so one merged call replaces a draw per executed
  /// slice. (The stochastic model still steps internal slots of fixed
  /// width, since its recovery is one Bernoulli draw per slot; its
  /// do_draw is one fused loop that keeps the wells and generator in
  /// registers and retires runs of no-transfer slots in blocks, one
  /// draw and one compare against a bound on the run's quanta per
  /// slot plus the slot's own adds.) Returns the sustained duration,
  /// exactly like draw(), and checks its arguments the same way.
  double advance_interval(double charge_c, double dt_s);

  /// Non-mutating depletion probe: the fraction of the cell's depletion
  /// budget that would be consumed by continuing `current_a` for `t_s`
  /// more seconds from the present state. A value >= 1.0 means the cell
  /// would hit cutoff within the interval. The normalization makes one
  /// contract fit every model: ideal and Peukert report consumed/rated
  /// capacity, diffusion reports sigma(T)/alpha, the kinetic models
  /// report 1 - y1/(c * capacity) with y1 from wells_after
  /// (available-well depletion). The probe never changes observable
  /// cell state — at most it fills diffusion's scratch decay lane.
  /// Arguments are checked as in draw().
  double sigma_after(double current_a, double t_s) const;

  /// Per-kernel work counters (cleared by reset()).
  const KernelCounters& kernel_counters() const noexcept { return kc_; }

  virtual bool empty() const = 0;

  /// Fraction of *total* stored charge remaining, in [0, 1]. Note that a
  /// battery may be empty() with state_of_charge() > 0 — the trapped
  /// charge phenomenon.
  virtual double state_of_charge() const = 0;

  /// Deep copy preserving parameters but with reset state.
  virtual std::unique_ptr<Battery> fresh_clone() const = 0;

  /// Restores the fully-charged initial state and clears accounting.
  void reset();

  /// Total charge delivered to the load so far (C).
  double charge_delivered_c() const noexcept { return delivered_c_; }
  double charge_delivered_mah() const noexcept { return to_mah(delivered_c_); }

  /// Wall-clock time survived under all draws so far (s). Idle time
  /// (zero current) counts: recovery happens while alive.
  double time_alive_s() const noexcept { return alive_s_; }

 protected:
  /// Model-specific state update; returns the sustained duration.
  virtual double do_draw(double current_a, double dt_s) = 0;
  /// Model-specific interval advance behind advance_interval(): exactly
  /// do_draw. No kernel overrides it; it stays a hook only because
  /// perfbench's timing proxy (TimedBattery) overrides it.
  virtual double do_advance_interval(double current_a, double dt_s) {
    return do_draw(current_a, dt_s);
  }
  /// Depletion probe behind sigma_after().
  virtual double do_sigma_after(double current_a, double t_s) const = 0;
  virtual void do_reset() = 0;

  /// Incremented by the kernels; mutable so the const probe path
  /// (sigma_after) can count its work.
  mutable KernelCounters kc_;

 private:
  double delivered_c_ = 0.0;
  double alive_s_ = 0.0;
};

}  // namespace bas::bat
