#pragma once
// Rakhmatov–Vrudhula diffusion battery model [14] — the analytical
// model from which the paper's scheduling guidelines were derived.
//
// The cell is a one-dimensional electrolyte-diffusion problem; solving
// it gives the "apparent charge" consumed by time T under load i(t):
//
//   sigma(T) = ∫0..T i dτ                       (charge actually drawn)
//            + 2 Σ_{m=1..∞} ∫0..T i(τ) e^{-β² m² (T-τ)} dτ   (unavailable)
//
// The battery is discharged when sigma(T) reaches the capacity alpha.
// The second term decays during idle/low-current periods — that is the
// recovery effect; its weighting of *recent* current explains why a
// non-increasing profile is optimal (Guideline 1).
//
// For piecewise-constant loads each series term has an exact recurrence,
// so stepping is O(M) per segment with no integration error. The series
// is truncated at `series_terms` (error falls off as e^{-β² M²}). The
// per-term decays e^{-β²m²t} come from one exp by strength reduction:
// x = e^{-β²t}, x^{m²} = x^{(m-1)²} · x^{2m-1}. That is the only series;
// draw, advance_interval and sigma_after all evaluate it. Against a
// per-term std::exp sweep it drifts by at most ~1.5e-11 relative on
// sigma (EXPERIMENTS.md, "Kernel instrumentation").

#include "battery/model.hpp"

#include <vector>

namespace bas::bat {

struct DiffusionParams {
  /// Capacity alpha: apparent charge the cell can supply (C).
  double alpha_c = 7200.0;
  /// Diffusion rate beta^2 (1/s). Smaller = slower recovery, stronger
  /// rate-capacity effect.
  double beta_squared = 4.0e-3;
  /// Series truncation; 10 terms is standard in the literature.
  int series_terms = 10;

  /// Calibrated against the same anchors as KibamParams::paper_aaa_nimh
  /// (2000 mAh max, ~1600 mAh at ~1.8 A). See EXPERIMENTS.md.
  static DiffusionParams paper_aaa_nimh();
};

class DiffusionBattery final : public Battery {
 public:
  explicit DiffusionBattery(DiffusionParams params);

  std::string name() const override { return "diffusion"; }
  bool empty() const override;
  double state_of_charge() const override;
  std::unique_ptr<Battery> fresh_clone() const override;

  const DiffusionParams& params() const noexcept { return params_; }
  /// The transient (recoverable) part 2 Σ s_m of the apparent charge (C).
  double unavailable_c() const;
  /// Apparent charge consumed so far, sigma(T) (C).
  double apparent_charge_c() const;

 protected:
  double do_draw(double current_a, double dt_s) override;
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override;

 private:
  /// sigma after continuing the present current for `t` more seconds.
  /// Fills the decay lane for t; advance() commits the lane last filled.
  double sigma_after_c(double current_a, double t) const;
  void advance(double current_a, double t);

  DiffusionParams params_;
  /// Structure-of-arrays term table: one contiguous block holding the
  /// three per-term lanes the kernels sweep, in sweep order —
  ///
  ///   [ rates | decay | s ],  each `terms_` wide
  ///
  ///  - rates: β²m², m = 1..series_terms, precomputed in the
  ///    constructor with the same expression the per-call formula used.
  ///    A 1/rate table was considered and rejected: multiplying by a
  ///    precomputed reciprocal is not an exact transformation of the
  ///    `/ rate` the formulas specify.
  ///  - decay: scratch e^{-rate·t} for the t of the last probe.
  ///  - s: per-term transient state.
  ///
  /// Mutable because the const probe fills the decay lane; the s lane
  /// is only written by the non-const advance path.
  mutable std::vector<double> soa_;
  std::size_t terms_ = 0;
  const double* rates() const noexcept { return soa_.data(); }
  double* decay() const noexcept { return soa_.data() + terms_; }
  double* s_lane() const noexcept { return soa_.data() + 2 * terms_; }
  double drawn_c_ = 0.0;  // ∫ i dτ
  bool dead_ = false;
};

}  // namespace bas::bat
