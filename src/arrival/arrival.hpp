#pragma once
// Arrival processes: pluggable release models for the simulator.
//
// Every scenario used to release task-graph instances on a rigid
// `k * period` clock. Real sensor and multimedia deployments see
// jittered, sporadic and time-varying traffic; an inhomogeneous Poisson
// point process (IPPP) is the standard model for the latter, simulated
// here by thinning against an explicit rate function (Lewis & Shedler).
// This module turns the release clock into a first-class, swept-able
// axis: a registry of named models — like the battery registry — each
// parameterized by the graph's nominal period, so one label reshapes
// the traffic of every preset.
//
//   periodic         release k at exactly k * period (the paper's model;
//                    bit-identical to the pre-subsystem simulator)
//   periodic-jitter  k * period + U(0, jitter_frac * period) — bounded
//                    release jitter on the periodic skeleton
//   sporadic         minimum separation of one period plus an
//                    Exp(gap_frac * period) gap — the classic sporadic
//                    task model
//   poisson          homogeneous Poisson with rate rate_scale / period
//   ippp             inhomogeneous Poisson via thinning against
//                    rate(t) = base * diurnal(t) * burst(t): a
//                    sinusoidal diurnal swell times an on/off burst
//                    envelope
//   trace-replay     releases read from a CSV trace (inline or @file),
//                    optionally repeated cyclically
//
// Processes are cheap, stateful, single-run objects: the simulator
// builds one per graph per run from the (label, params) Spec, drawing
// randomness from an Rng it derives per graph via util::derive_seed —
// so results stay bit-reproducible for any thread count under the
// campaign runner, and every scheme of a comparison faces the same
// release times (common random numbers).

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace bas::arrival {

/// Knobs of every model in one plain value (a model reads only its own
/// fields; fingerprint() serializes only those, so unrelated knobs do
/// not invalidate campaign caches). All "*_frac" values are fractions
/// of the graph's nominal period.
struct Params {
  /// periodic-jitter: release k is k*period + U(0, jitter_frac*period).
  /// Must lie in [0, 1) so releases stay monotone.
  double jitter_frac = 0.25;
  /// sporadic: the exponential gap beyond the one-period minimum
  /// separation has mean gap_frac * period (>= 0).
  double gap_frac = 0.5;
  /// poisson/ippp: base rate is rate_scale / period (> 0); 1.0 matches
  /// the periodic model's long-run rate.
  double rate_scale = 1.0;
  /// ippp diurnal term: rate multiplier 1 + diurnal_amp *
  /// sin(2*pi*t / diurnal_period_s); amp in [0, 1].
  double diurnal_amp = 0.0;
  double diurnal_period_s = 3600.0;
  /// ippp on/off burst envelope: within the first burst_duty fraction
  /// of every burst_period_s window the rate is multiplied by
  /// burst_factor (>= 1); burst_period_s == 0 disables the envelope.
  double burst_factor = 1.0;
  double burst_period_s = 0.0;
  double burst_duty = 0.25;
  /// trace-replay: either an inline semicolon-separated list of release
  /// seconds ("0;0.2;1.5") or "@path" naming a CSV file (one time per
  /// line, or comma/semicolon-separated; '#' starts a comment).
  std::string trace;
  /// trace-replay: repeat the trace cyclically with a wrap length of
  /// (last release + one period); false stops after the last release.
  bool trace_repeat = true;
};

/// A (label, params) pair — what SimConfig and ScenarioSpec carry. The
/// registry below is the single label -> object source.
struct Spec {
  std::string model = "periodic";
  Params params;
};

/// One graph's release clock for one simulation run. Implementations
/// may keep internal state (release counters, trace cursors); build a
/// fresh instance per run.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// The next absolute release time strictly after `prev_release`
  /// (pass a negative value for the first release), or +infinity when
  /// the process emits no further releases. Successive calls must be
  /// non-decreasing in their results; `rng` is the process's private
  /// stream.
  virtual double next_release(double prev_release, util::Rng& rng) = 0;

  /// The registry label this process was built from.
  virtual std::string label() const = 0;
};

/// Registry labels, in catalogue order: {"periodic", "periodic-jitter",
/// "sporadic", "poisson", "ippp", "trace-replay"}.
const std::vector<std::string>& labels();

/// Builds the process for one graph with nominal period `period_s`.
/// Validates the label and every parameter the model reads (and loads +
/// parses the trace for trace-replay), throwing std::invalid_argument
/// with the valid labels / the offending value on violation.
std::unique_ptr<ArrivalProcess> make(const Spec& spec, double period_s);

/// Resolves a trace-replay `trace` param to its sorted, de-duplicated
/// release times: "@path" loads the file (memoized per path within the
/// process — campaign jobs re-make processes per run), anything else is
/// parsed inline. Throws std::invalid_argument on an empty param, an
/// unreadable file or a malformed entry.
std::vector<double> load_trace(const std::string& trace);

/// Eager validation without building: make(spec, 1.0), result dropped.
/// Call from CLI override paths so a bad label or parameter fails at
/// parse time, not inside a worker thread mid-campaign.
void validate(const Spec& spec);

/// Canonical "arrival=<label> key=value..." serialization of the label
/// plus exactly the parameters that model reads (17 significant digits;
/// trace-replay hashes the parsed release times, so an edited trace
/// file invalidates campaign caches too). Folded into
/// ScenarioSpec::fingerprint().
std::string fingerprint(const Spec& spec);

}  // namespace bas::arrival
