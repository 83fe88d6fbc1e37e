#pragma once
// Peukert's-law battery: captures the rate-capacity effect (higher load
// -> less usable capacity) but not the recovery effect. Used by early
// battery-aware work such as Luo & Jha [7].

#include "battery/model.hpp"

namespace bas::bat {

struct PeukertParams {
  /// Charge delivered at the reference rate (C).
  double capacity_c = 7200.0;
  /// Peukert exponent (>= 1; 1 degenerates to the ideal battery).
  double exponent = 1.2;
  /// Reference current at which the rated capacity holds (A).
  double reference_current_a = 0.2;
};

/// Generalized-Peukert model for time-varying loads: the cell is empty
/// when  ∫ I(t) * (I(t)/Iref)^(p-1) dt  >=  capacity. For constant I
/// this reduces to lifetime = C / (I * (I/Iref)^(p-1)) — Peukert's law.
/// Currents below Iref are treated as Iref-equivalent per unit charge
/// (no "super-capacity" extrapolation), keeping delivered charge bounded
/// by the rated capacity.
class PeukertBattery final : public Battery {
 public:
  explicit PeukertBattery(PeukertParams params);

  std::string name() const override { return "peukert"; }
  bool empty() const override;
  double state_of_charge() const override;
  std::unique_ptr<Battery> fresh_clone() const override;

  const PeukertParams& params() const noexcept { return params_; }

 protected:
  double do_draw(double current_a, double dt_s) override;
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override;

 private:
  /// Effective drain rate (C/s) for a current, >= the physical current
  /// for I > Iref — the pow shared by draw and the probe.
  double effective_rate(double current_a) const;

  PeukertParams params_;
  double exponent_minus_one_ = 0.0;  // hoisted from the per-draw pow
  double consumed_c_ = 0.0;  // Peukert-weighted charge
};

}  // namespace bas::bat
