#pragma once
// Stochastic battery model — stand-in for the model of Rao, Singhal,
// Kumar & Navet, "Battery model for embedded systems" (VLSI Design 2005)
// [13], which the paper uses to estimate battery life in §5 and whose
// exact parameters are not recoverable from the paper.
//
// Following that line of work (Chiasserini–Rao and [13]), the cell is a
// discrete-time stochastic process over charge quanta in two wells with
// KiBaM drift: each slot consumes I*dt from the available well, and
// recovery moves whole charge quanta from the bound well with a
// Bernoulli probability chosen so the *expected* transfer equals the
// kinetic-model rate k*(h2-h1)*dt. The expectation therefore tracks
// KibamBattery exactly (a property the tests check), while individual
// runs show the variance a stochastic model contributes.
//
// See DESIGN.md §5 (substitutions).

#include "battery/kibam.hpp"
#include "battery/model.hpp"
#include "util/rng.hpp"

namespace bas::bat {

struct StochasticParams {
  /// Underlying kinetic parameters (wells, rate constant).
  KibamParams kinetics = KibamParams::paper_aaa_nimh();
  /// Time slot of the discrete process (s).
  double slot_s = 0.01;
  /// Charge quantum moved per successful recovery event (C). The
  /// default splits the paper's 2000 mAh cell into 2e5 quanta.
  double quantum_c = 0.036;
  /// Seed for the recovery process.
  std::uint64_t seed = 0x5eedba77ULL;
};

class StochasticBattery final : public Battery {
 public:
  explicit StochasticBattery(StochasticParams params);

  std::string name() const override { return "stochastic"; }
  bool empty() const override;
  double state_of_charge() const override;
  std::unique_ptr<Battery> fresh_clone() const override;

  const StochasticParams& params() const noexcept { return params_; }
  double available_c() const noexcept { return y1_; }
  double bound_c() const noexcept { return y2_; }

 protected:
  double do_draw(double current_a, double dt_s) override;
  /// Deterministic expectation probe: the stochastic slot process has
  /// no closed form, so the probe evaluates the underlying kinetic
  /// (KiBaM) solution from the current wells — E[depletion] of the
  /// quantized process, consuming no randomness.
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override;

 private:
  StochasticParams params_;
  util::Rng rng_;
  /// k·c·(1−c), hoisted from the per-slot transfer expression with the
  /// same association the formula used (bit-identical values).
  double flow_coeff_ = 0.0;
  double one_minus_c_ = 0.0;  // 1 − c, for the bound-well height
  double y1_ = 0.0;
  double y2_ = 0.0;
  bool dead_ = false;
};

}  // namespace bas::bat
