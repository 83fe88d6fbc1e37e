#pragma once
// Frequency-setting (DVS) policies — the "global frequency selection"
// half of the paper's methodology (§4.1).
//
// A policy observes the status of every task graph's current instance
// and returns the reference frequency fref that keeps all future
// deadlines safe. The simulator re-queries the policy at every release
// and node completion, exactly the two hook points of the paper's
// Algorithm 1.

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace bas::dvs {

/// Scheduler-visible status of one task graph's current instance, the
/// common currency between DVS policies, the feasibility check, and the
/// simulator.
struct GraphStatus {
  /// Index of the graph within its TaskGraphSet.
  int graph = 0;
  /// Period Di (= relative deadline), seconds.
  double period_s = 0.0;
  /// Absolute deadline of the current instance, seconds.
  double abs_deadline_s = 0.0;
  /// Static worst case: sum of all node wcets, cycles (used for the
  /// schedulability-level utilization).
  double wc_total_cycles = 0.0;
  /// The paper's WCi: sum of actual cycles for completed nodes plus
  /// worst-case cycles for incomplete ones (Algorithm 1's update
  /// WCi <- WCi + ac_ij - wc_ij). Resets to wc_total at each release.
  double cc_wc_cycles = 0.0;
  /// Work provably still pending in the worst case: worst-case cycles of
  /// incomplete nodes minus verified progress on the running node.
  /// This is laEDF's c_left and the feasibility check's WC-remaining.
  double remaining_wc_cycles = 0.0;
  /// True once every node of the instance has completed.
  bool complete = false;
};

class DvsPolicy {
 public:
  virtual ~DvsPolicy() = default;

  virtual std::string name() const = 0;

  /// Returns fref (Hz) given the status of every graph's current
  /// instance (one entry per graph in the set, any order) at time `now`.
  /// Callers clamp to the processor's range via the realizer.
  virtual double select(std::span<const GraphStatus> graphs, double now) = 0;

  /// True when select() is a pure function of per-run constants — it
  /// reads neither `now` nor any dynamic GraphStatus field — so one
  /// call's result holds for the whole run. The simulator uses this to
  /// hoist frequency selection (and the realized plan) out of its inner
  /// loop; the hoisted value is exactly what every per-step call would
  /// have returned. Policies with any dynamic input must return false
  /// (the default).
  virtual bool run_constant() const { return false; }

  /// Clears internal state (if any) for a fresh simulation run.
  virtual void reset() {}
};

/// No DVS: always fmax. The paper's "EDF" baseline row in Table 2.
std::unique_ptr<DvsPolicy> make_no_dvs(double fmax_hz);

/// Static speed: U * fmax with U the static worst-case utilization,
/// never revised at runtime. (A classic baseline; not in Table 2 but
/// used by the ablation benches.)
std::unique_ptr<DvsPolicy> make_static_dvs(double fmax_hz);

/// Cycle-conserving EDF extended to task graphs (paper Algorithm 1):
/// fref = fmax * Σ WCi / Di with WCi tracking actuals of completed nodes.
std::unique_ptr<DvsPolicy> make_cc_edf(double fmax_hz);

/// Look-ahead EDF (Pillai-Shin) over graph instances: defers work past
/// the earliest deadline as far as utilization allows and runs just fast
/// enough to finish the rest, using remaining worst-case work.
std::unique_ptr<DvsPolicy> make_la_edf(double fmax_hz);

}  // namespace bas::dvs
