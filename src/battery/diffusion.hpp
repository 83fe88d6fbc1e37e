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
// is truncated at `series_terms` (error falls off as e^{-β² M²}).

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
  /// Merged-window fast path (battery merge-window flushes only): the
  /// same exact recurrence, but with the per-term decays produced by
  /// strength reduction — x = e^{-β²t}, decay_m = x^{m²} via
  /// x^{m²} = x^{(m-1)²} · x^{2m-1} — so each probe costs 1 exp and
  /// ~2 multiplies per term instead of one exp per term. Not bitwise
  /// equal to the std::exp sweep (~1e-13 relative on the decays), which
  /// is why it lives behind the interval-advance hook the per-slice
  /// draw path never takes; covered by the written waiver in
  /// EXPERIMENTS.md ("Kernel instrumentation").
  double do_advance_interval(double current_a, double dt_s) override;
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override;

 private:
  /// sigma after continuing the present current for `t` more seconds.
  double sigma_after_c(double current_a, double t) const;
  void advance(double current_a, double t);
  /// Fast-series probe: fills the fast-decay lane for t and returns
  /// sigma; advance_with_fast_decays commits the lane last filled.
  double sigma_after_c_fast(double current_a, double t) const;
  void advance_with_fast_decays(double current_a, double t);

  /// Fills decay_[m-1] = e^{-β²m²t} for the given t, reusing the buffer
  /// when t matches the previous call. The factors depend on t alone —
  /// not on the cell state or current — so the cache stays valid across
  /// advance() and reset(). This is what lets the common draw path
  /// (sigma_after + advance at the same t) and the repeated-t probes of
  /// the cutoff bisection evaluate the series with one exp sweep
  /// instead of two.
  void fill_decay(double t) const;

  /// fill_decay(t) plus gain_[m-1] = I·(1−e^{-rate·t})/rate — the
  /// forcing term both sigma_after and advance evaluate. Keyed on
  /// (t, current): the common draw path computes it once and the
  /// advance() that commits the same interval reads it back.
  void fill_terms(double current_a, double t) const;

  DiffusionParams params_;
  /// Structure-of-arrays term table: one contiguous block holding the
  /// five per-term lanes the kernels sweep, in sweep order —
  ///
  ///   [ rates | decay | gain | s | fast_decay ],  each `terms_` wide
  ///
  /// so a probe's term loop walks one cache-line run instead of four
  /// scattered heap vectors, and the element-wise lanes sit where the
  /// autovectorizer likes them.
  /// Lane semantics are unchanged from the former separate vectors:
  ///
  ///  - rates: β²m², m = 1..series_terms, precomputed in the
  ///    constructor with the same expression the per-call formula used
  ///    (bit-identical values; see tests/test_battery.cpp). A 1/rate
  ///    table was considered and rejected: multiplying by a precomputed
  ///    reciprocal is not an exact transformation of the `/ rate` the
  ///    formulas specify, and the byte-identity contract forbids it.
  ///  - decay: e^{-rate·t} for decay_t_ (t-keyed memo).
  ///  - gain: I·(1−decay)/rate for (gain_t_, gain_current_a_).
  ///  - s: per-term transient state.
  ///  - fast_decay: scratch for the strength-reduced series — kept
  ///    separate from the exact decay memo so fast probes can never
  ///    pollute the bit-frozen scalar path.
  ///
  /// The whole block is mutable because the decay/gain/fast lanes are
  /// const-path memo caches; the s lane is only written by the
  /// non-const advance paths.
  mutable std::vector<double> soa_;
  std::size_t terms_ = 0;
  const double* rates() const noexcept { return soa_.data(); }
  double* decay() const noexcept { return soa_.data() + terms_; }
  double* gain() const noexcept { return soa_.data() + 2 * terms_; }
  double* s_lane() const noexcept { return soa_.data() + 3 * terms_; }
  double* fast_decay() const noexcept { return soa_.data() + 4 * terms_; }
  mutable double decay_t_ = -1.0;  // t the decay lane is valid for
  mutable double gain_t_ = -1.0;   // (t, I) the gain lane is valid for
  mutable double gain_current_a_ = 0.0;
  double drawn_c_ = 0.0;  // ∫ i dτ
  bool dead_ = false;
};

}  // namespace bas::bat
