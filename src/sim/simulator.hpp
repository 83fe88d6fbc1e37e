#pragma once
// Event-driven simulation of a scheduling scheme over a periodic
// task-graph set on a DVS processor, optionally discharging a battery
// inline — the experimental apparatus behind every table and figure.
// One loop (simulator.cpp): a priority queue of (time, kind, actor)
// events — releases and battery observations — with battery
// decay/recovery evaluated over merged intervals in one closed-form
// kernel call (SimConfig::battery_window_s; EXPERIMENTS.md,
// "Event-driven core" has the numerical-equivalence argument).
//
// Decision points are exactly the paper's: task-graph releases and node
// completions. Releases are pulled from a per-graph ArrivalProcess
// (arrival/arrival.hpp; default "periodic" = the paper's k * period
// clock, bit-identical), with deadlines release-relative. At each
// decision point the scheme's DVS policy re-selects fref, the
// realizer maps it onto the processor's operating points (higher point
// first within a slot), the ready list is built according to the
// scheme's scope, candidates are scored by the priority function, and
// the best candidate passing the feasibility check runs until it
// finishes or the next release preempts it.
//
// Actual computations are drawn per (seed, graph, instance, node) as
// U(ac_lo, ac_hi) * wc — identical across schemes for a given seed
// (common random numbers), as required for fair scheme comparisons.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arrival/arrival.hpp"
#include "battery/model.hpp"
#include "battery/profile.hpp"
#include "core/scheme.hpp"
#include "dvs/processor.hpp"
#include "sim/trace.hpp"
#include "taskgraph/set.hpp"

namespace bas::obs {
class TraceLog;
}

namespace bas::sim {

namespace detail {
// Per-run working state (instance/arrival runtime, status snapshots,
// EDF order, candidate and phase lists, event queue), owned by the
// Simulator and reused across steps and runs so the scheduling loop
// allocates nothing in steady state. Defined in simulator.cpp.
struct Scratch;
}  // namespace detail

/// How per-instance actual computations relate across instances.
enum class AcModel {
  /// Fresh U(lo, hi) * wc draw per (instance, node) — the paper's §5
  /// wording taken literally. History-based estimators see only the
  /// population mean.
  kIid,
  /// Each node has a persistent mean fraction drawn once from U(lo, hi),
  /// jittered per instance — tasks with stable data-dependent behaviour.
  /// This is the regime where "keep history of previous instances"
  /// (§4.2) pays off.
  kPerNodeMean,
};

struct SimConfig {
  /// Releases stop at this simulated time; with `drain` the run then
  /// finishes all in-flight instances (same total work for every scheme).
  double horizon_s = 60.0;
  bool drain = true;
  /// Seed for per-node actual computations.
  std::uint64_t seed = 1;
  /// Actual computation as a fraction of wc, drawn from
  /// [ac_lo_frac, ac_hi_frac] ("between 20% and 100% of the WCET", §5).
  double ac_lo_frac = 0.2;
  double ac_hi_frac = 1.0;
  AcModel ac_model = AcModel::kIid;
  /// kPerNodeMean: per-instance jitter added to the node's mean fraction
  /// (result clamped back into [ac_lo_frac, ac_hi_frac]).
  double ac_jitter = 0.1;
  /// Release model driving every graph's instance arrivals (see
  /// arrival/arrival.hpp). The default "periodic" reproduces the
  /// paper's k * period clock bit-identically. Deadlines stay
  /// release-relative (release + graph deadline) under every model.
  /// Per-graph arrival streams are seeded via util::derive_seed from
  /// `seed`, so arrivals are identical across schemes (CRN) and for
  /// any thread count.
  arrival::Spec arrival;
  /// Record the full execution trace (for audits and figures).
  bool record_trace = false;
  /// Record the battery-current load profile.
  bool record_profile = true;
  /// Copy the hot-path work counters (always counted) into
  /// SimResult::perf; otherwise it stays zero. Counters are
  /// instrumentation only — they never enter a sink or a cache record,
  /// so recording them cannot perturb the byte-identity contract. The
  /// perf benches flip this on to normalize their timings.
  bool record_perf_counters = false;
  /// Debug cross-check of the incrementally maintained scheduler
  /// state: at every decision point the simulator additionally rebuilds
  /// the EDF order (via util::insertion_sort) and the four dynamic
  /// status-snapshot fields from scratch and throws std::logic_error if
  /// either differs from the maintained copy. Instrumentation only —
  /// the check reads state and compares, so an enabled run that does
  /// not throw is byte-identical to a disabled one. Far too slow for
  /// benchmarks; meant for tests.
  bool check_incremental_state = false;
  /// The maximum simulated span of one battery merge window.
  /// Busy/idle slices shorter than this accrue into a
  /// charge-equivalent mean-current interval that hits the kernel once
  /// at the next battery-observation point; constant stretches of at
  /// least this length (long idle gaps) are always evaluated exactly in
  /// a single closed-form call. 5 s shifts lifetimes by < 0.1% on every
  /// calibrated kernel (EXPERIMENTS.md, "Event-driven core"). Merging
  /// disables itself when a load profile or trace is recorded (those
  /// runs flush per slice and stay draw-for-draw exact); <= 0 disables
  /// it everywhere.
  double battery_window_s = 5.0;
  /// Optional Chrome-trace sink (obs/trace_log.hpp), not owned. When
  /// attached the simulator emits release/completion instants and
  /// per-node execution spans on the sim-time track (record_trace or
  /// not).
  /// Instrumentation only: never enters a fingerprint, sink or store
  /// record, so attaching a log leaves every result byte-identical.
  obs::TraceLog* trace_log = nullptr;
};

/// The configuration checks: horizon_s > 0, 0 < ac_lo_frac <=
/// ac_hi_frac <= 1 and a valid arrival spec (arrival::validate). Throws
/// std::invalid_argument. The Simulator constructor runs it; parse-time
/// callers (scenario::apply_cli_overrides) run it on the effective
/// config so a bad override fails before any job, not inside a worker.
void validate(const SimConfig& config);

/// Hot-path work counters, counted on every run and reported under
/// SimConfig::record_perf_counters.
struct PerfCounters {
  /// Scheduling-loop iterations — decision points visited (releases,
  /// completions, idle hops). The denominator behind steps/sec.
  std::uint64_t steps = 0;
  /// Battery::draw calls issued (busy and idle segments alike).
  std::uint64_t battery_draws = 0;
  /// Ready-list candidates built across all steps. Counts lone
  /// candidates too, which a non-stochastic priority never scores.
  std::uint64_t candidates_scored = 0;
  /// Times a reused scratch buffer (status/EDF/candidate arrays,
  /// per-instance node and ready-list storage, event queue) had to
  /// allocate or grow. Steady state should hold this at a small warmup
  /// constant — the zero-alloc property bench/perf_hotpath tracks.
  std::uint64_t scratch_grows = 0;
  /// Events dispatched from the queue (releases, battery observations)
  /// plus completion dispatches of the running-slice register.
  std::uint64_t events_popped = 0;
  /// Executed slices whose battery evaluation was deferred into a merge
  /// window instead of an individual kernel call — per-slice draws
  /// that were skipped. 0 with merging off (window 0, profile, trace).
  std::uint64_t ticks_skipped = 0;
  /// Closed-form battery advances over merged or long-constant
  /// intervals (window flushes + whole idle gaps). Every one replaces
  /// a run of per-slice draws. 0 with merging off.
  std::uint64_t battery_interval_advances = 0;
  /// Sorted insert/erase operations on the persistently maintained EDF
  /// order (releases and completions are the only points it can
  /// change) — the attribution counter behind the incremental-state
  /// win over a per-step rebuild + sort.
  std::uint64_t edf_incremental_ops = 0;
  /// Simulated seconds of empty time crossed in single jumps (the
  /// counter makes the sparse/dense mix of a scenario visible in perf
  /// reports).
  double idle_time_jumped_s = 0.0;
  /// Per-kernel battery work counters, copied from the attached
  /// battery at the end of the run (all zero when no battery is
  /// attached). See battery/kernel_counters.hpp for field semantics.
  bat::KernelCounters kernel;
};

struct SimResult {
  /// Simulated time reached (s).
  double end_time_s = 0.0;
  /// Core (processor-side) energy consumed by execution (J).
  double energy_j = 0.0;
  /// Battery-side charge for execution + idle (C); equals the profile
  /// integral when the profile is recorded.
  double charge_c = 0.0;
  /// Busy time (s) — everything that is not idle.
  double busy_s = 0.0;

  std::uint64_t instances_released = 0;
  std::uint64_t instances_completed = 0;
  std::uint64_t nodes_executed = 0;
  std::uint64_t preemptions = 0;
  /// Times the effective frequency rose between consecutive busy slices
  /// within one hyper-release window — a Guideline 1 proxy.
  std::uint64_t frequency_increases = 0;
  /// Instances that completed after their absolute deadline, plus
  /// instances superseded while incomplete: graphs are single-buffered
  /// (one instance in flight), so a new release replaces an unfinished
  /// predecessor and counts it here. Under periodic arrivals the next
  /// release IS the deadline, so both notions coincide; under
  /// jittered/stochastic arrivals an early next release clips the
  /// window short of the release-relative deadline — the price
  /// deferred-work schemes (BAS-2) pay on non-periodic traffic.
  std::size_t deadline_misses = 0;

  bat::LoadProfile profile;       // when record_profile
  std::vector<ExecSlice> trace;   // when record_trace
  PerfCounters perf;              // when record_perf_counters, else 0

  bool battery_attached = false;
  bool battery_died = false;
  double battery_lifetime_s = 0.0;
  double battery_delivered_mah = 0.0;

  double average_current_a() const {
    return end_time_s > 0.0 ? charge_c / end_time_s : 0.0;
  }
};

class Simulator {
 public:
  /// The scheme is held by reference and mutated (estimator history,
  /// random priority stream); it is reset() at the start of every run.
  Simulator(const tg::TaskGraphSet& set, const dvs::Processor& proc,
            core::Scheme& scheme, SimConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the simulation; with a battery, discharges it inline and stops
  /// the moment it empties. The battery is reset first.
  SimResult run(bat::Battery* battery = nullptr);

 private:
  const tg::TaskGraphSet& set_;
  const dvs::Processor& proc_;
  core::Scheme& scheme_;
  SimConfig config_;
  std::unique_ptr<detail::Scratch> scratch_;
};

/// Convenience wrapper: build the scheme, simulate, return the result.
SimResult simulate_scheme(const tg::TaskGraphSet& set,
                          const dvs::Processor& proc, core::SchemeKind kind,
                          const SimConfig& config,
                          bat::Battery* battery = nullptr);

}  // namespace bas::sim
