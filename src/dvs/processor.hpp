#pragma once
// DVS-capable processor model (paper §2, Figure 1).
//
// The processor runs at one of a set of (frequency, voltage) operating
// points behind a DC-DC converter of efficiency eta fed from a battery
// at voltage Vbat:
//
//     eta * Vbat * Ibat = Vproc * Iproc,      Iproc = Ceff * Vproc * f
//
// so the battery-side current is Ibat = Ceff * Vproc^2 * f / (eta * Vbat).
// With voltage scaling proportional to frequency (Vproc = s * Vmax,
// f = s * fmax) the battery current scales as s^3 — the property the
// paper builds on. Core power is P = Vproc * Iproc = Ceff * Vproc^2 * f.

#include <string>
#include <vector>

namespace bas::dvs {

/// One frequency/voltage tuple the hardware supports.
struct OperatingPoint {
  double freq_hz = 0.0;
  double voltage_v = 0.0;
};

class Processor {
 public:
  /// Discrete processor with the given operating points (any order;
  /// stored sorted by frequency). Throws std::invalid_argument on empty
  /// points, non-positive or non-finite values, or duplicate
  /// frequencies.
  Processor(std::vector<OperatingPoint> points, double vbat_v,
            double converter_eta, double ceff_farad, double idle_current_a);

  /// Continuous-frequency idealization: any f in (0, fmax] is available
  /// with voltage scaling linearly, V(f) = vmax * f / fmax. Used by the
  /// energy-only experiments (Table 1, Figure 6).
  static Processor continuous_ideal(double fmax_hz, double vmax_v,
                                    double vbat_v = 1.2,
                                    double converter_eta = 0.9,
                                    double ceff_farad = 7.776e-11,
                                    double idle_current_a = 0.0);

  /// The paper's evaluation processor: operating points
  /// [(0.5 GHz, 3 V), (0.75 GHz, 4 V), (1.0 GHz, 5 V)], 1.2 V battery
  /// rail, eta = 0.9, and Ceff calibrated so the full-speed battery
  /// current is ~1.8 A (see EXPERIMENTS.md, calibration).
  static Processor paper_default();

  bool continuous() const noexcept { return continuous_; }
  double fmax_hz() const noexcept { return points_.back().freq_hz; }
  double fmin_hz() const noexcept { return points_.front().freq_hz; }
  double ceff_farad() const noexcept { return ceff_; }
  double idle_current_a() const noexcept { return idle_current_a_; }

  /// Operating points sorted by ascending frequency. For a continuous
  /// processor this holds the single (fmax, vmax) anchor.
  const std::vector<OperatingPoint>& points() const noexcept {
    return points_;
  }

  /// Voltage at frequency f. Continuous: vmax * f / fmax. Discrete:
  /// exact lookup; throws std::invalid_argument when f is not a point.
  double voltage_at(double freq_hz) const;

  /// Core power (W) at an operating point: Ceff * V^2 * f.
  double core_power_w(const OperatingPoint& op) const noexcept;

  /// Battery-side current (A) at an operating point:
  /// Ceff * V^2 * f / (eta * Vbat).
  double battery_current_a(const OperatingPoint& op) const noexcept;

  /// Energy per cycle (J) at an operating point: Ceff * V^2.
  double energy_per_cycle_j(const OperatingPoint& op) const noexcept;

 private:
  std::vector<OperatingPoint> points_;
  double vbat_v_ = 1.2;
  double eta_ = 0.9;
  double ceff_ = 7.776e-11;
  double idle_current_a_ = 0.0;
  bool continuous_ = false;
};

}  // namespace bas::dvs
