#pragma once
// Kinetic Battery Model (KiBaM), Manwell & McGowan [8] — the two-well
// model the paper uses to explain both scheduling guidelines (§3).
//
//   available well y1 (fraction c of capacity)  -> feeds the load
//   bound well     y2 (fraction 1-c)            -> refills y1 at rate
//                                                  k * (h2 - h1)
// with well heights h1 = y1/c, h2 = y2/(1-c). The battery is discharged
// when the available well empties — possibly with charge still bound
// (the trapped charge battery-aware scheduling rescues).
//
// Stepping uses the exact closed-form solution of the two coupled ODEs
// for a constant current over the interval, so accuracy is independent
// of segment length; cutoff inside a segment is located by bisection on
// the closed form. One function, wells_after, evaluates that closed form
// with one exp per call; the draw, its bisection, the depletion probe
// and the stochastic cell's expectation probe all call it.

#include "battery/model.hpp"

namespace bas::bat {

struct KibamParams {
  /// Total charge capacity y1+y2 at full charge (C).
  double capacity_c = 7200.0;  // 2000 mAh
  /// Fraction of capacity in the available well.
  double c_fraction = 0.625;
  /// Well-equalization rate constant k' (1/s).
  double k_rate = 4.5e-4;

  /// Parameters calibrated for the paper's cell: 1.2 V AAA NiMH,
  /// 2000 mAh maximum (infinitesimal-load) capacity, ~1600 mAh delivered
  /// at the simulated full-speed load of ~1.8 A. See EXPERIMENTS.md.
  static KibamParams paper_aaa_nimh();
};

/// Charge in the available (y1) and bound (y2) wells (C).
struct Wells {
  double y1;
  double y2;
};

/// Both wells after drawing `current_a` for `t` seconds from (y1, y2):
/// the Manwell-McGowan closed form, with one shared e^{-kt}, counted
/// in `kc`.
Wells wells_after(const KibamParams& p, double y1, double y2,
                  double current_a, double t, KernelCounters& kc);

class KibamBattery final : public Battery {
 public:
  explicit KibamBattery(KibamParams params);

  std::string name() const override { return "kibam"; }
  bool empty() const override;
  double state_of_charge() const override;
  std::unique_ptr<Battery> fresh_clone() const override;

  const KibamParams& params() const noexcept { return params_; }
  /// Charge in the available well (C).
  double available_c() const noexcept { return y1_; }
  /// Charge in the bound well (C).
  double bound_c() const noexcept { return y2_; }

 protected:
  double do_draw(double current_a, double dt_s) override;
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override;

 private:
  KibamParams params_;
  double y1_ = 0.0;
  double y2_ = 0.0;
  bool dead_ = false;
};

}  // namespace bas::bat
