#pragma once
// Scoped phase profiling of the simulator loop (the BAS_PROFILE CMake
// option).
//
// The scheduling loop is partitioned into a fixed phase taxonomy:
//
//   queue-ops        event dispatch, queue pushes, merge-window
//                    observation flushes
//   incremental-maint maintaining the persistent EDF order and
//                    write-through status snapshot at
//                    releases/completions plus the deadline-expiry
//                    watch
//   bookkeeping      post-slice completion bookkeeping
//   dvs-select       DvsPolicy::select + realize (the scheme's DVS half)
//   candidate-build  ready-list candidate enumeration
//   estimate-score   estimator lookups + priority scoring
//   select           min/sort walk + feasibility guard
//   battery-advance  executing the chosen slice: battery draws, merge
//                    accrual, profile/trace recording
//
// A PhaseClock marks the start of a step and laps at each phase
// boundary: one clock read per boundary, with the delta credited to
// the phase that just ended. The phases therefore PARTITION the loop
// body — their sum is the loop's wall time (minus the clock reads
// themselves), which is what lets bench/perf_hotpath report a per-phase
// table whose rows add up to the measured step time.
//
// Cost model (EXPERIMENTS.md, "Observability" has measurements):
//   BAS_PROFILE=0 (default)  mark()/lap() are empty inline functions —
//                            the loops carry zero instrumentation.
//   BAS_PROFILE=1, off       one pointer test per boundary (the clock
//                            is only read when a run asked for
//                            profiling via record_phase_profile).
//   BAS_PROFILE=1, on        one TSC read (x86-64) or steady_clock
//                            read per boundary; raw ticks accumulate
//                            and are converted to ns once per run
//                            against a steady_clock span, so the hot
//                            path never divides.
//
// Profiling is instrumentation only: it reads clocks and writes
// PhaseProfile/TraceLog, never any simulation state, so results are
// bitwise identical with profiling on or off (tests/test_obs.cpp).

#include <cstdint>

#ifndef BAS_PROFILE
#define BAS_PROFILE 0
#endif

#if BAS_PROFILE && (defined(__x86_64__) || defined(_M_X64))
#define BAS_PROFILE_TSC 1
#else
#define BAS_PROFILE_TSC 0
#endif

#if BAS_PROFILE
#include <chrono>
#endif

namespace bas::obs {

class TraceLog;

/// The fixed phase taxonomy, in loop order.
enum class Phase : int {
  kQueueOps = 0,
  kIncrementalMaint,
  kBookkeeping,
  kDvsSelect,
  kCandidateBuild,
  kEstimateScore,
  kSelect,
  kBatteryAdvance,
};
constexpr int kPhaseCount = 8;

/// Display name ("dvs-select") — trace spans and tables.
const char* phase_name(Phase phase);
/// Flat metric/JSON field name ("ph_dvs_select_ns") — the bas-perf/4
/// schema and the metrics registry.
const char* phase_field(Phase phase);

/// Per-phase accumulated wall time and boundary counts for one run
/// (SimResult::perf.phases). Always present so the bas-perf schema is
/// build-independent; all zero unless the build compiled the profiler
/// in AND the run set SimConfig::record_phase_profile.
struct PhaseProfile {
  /// True when BAS_PROFILE compiled the clock reads in.
  static constexpr bool compiled_in = BAS_PROFILE != 0;

  std::uint64_t ns[kPhaseCount] = {};
  std::uint64_t laps[kPhaseCount] = {};

  std::uint64_t total_ns() const {
    std::uint64_t total = 0;
    for (int p = 0; p < kPhaseCount; ++p) {
      total += ns[p];
    }
    return total;
  }

  void clear() { *this = PhaseProfile{}; }

  PhaseProfile& operator+=(const PhaseProfile& o) {
    for (int p = 0; p < kPhaseCount; ++p) {
      ns[p] += o.ns[p];
      laps[p] += o.laps[p];
    }
    return *this;
  }
};

#if BAS_PROFILE

/// The simulator's boundary timer. Accumulates raw ticks per phase;
/// finish() converts to ns in one run-level calibration (wall span /
/// tick span) and adds into the attached profile. With a TraceLog
/// attached, every lap additionally emits a wall-clock phase span on
/// the kProfilerPid track (capped per run — see kMaxLoggedSpans).
class PhaseClock {
 public:
  /// Either pointer may be null; with both null the clock is disabled
  /// and mark()/lap() reduce to one predictable branch.
  PhaseClock(PhaseProfile* profile, TraceLog* log);
  ~PhaseClock() { finish(); }

  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  /// Opens a step: the next lap is measured from here.
  void mark() {
    if (enabled_) {
      last_ = tick_now();
    }
  }

  /// Closes the phase that just ran: credits [last mark/lap, now) to
  /// `phase` and re-marks.
  void lap(Phase phase) {
    if (!enabled_) {
      return;
    }
    const std::uint64_t now = tick_now();
    ticks_[static_cast<int>(phase)] += now - last_;
    ++profile_scratch_.laps[static_cast<int>(phase)];
    last_ = now;
    if (log_ != nullptr) {
      lap_log(phase);
    }
  }

  /// Converts accumulated ticks to ns and flushes into the profile.
  /// Idempotent; called by the destructor.
  void finish();

 private:
  static std::uint64_t tick_now() {
#if BAS_PROFILE_TSC
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  void lap_log(Phase phase);  // out of line: touches TraceLog

  /// Phase spans a single run may emit into a TraceLog — a defensive
  /// cap so attaching a trace to a long run cannot balloon the file;
  /// aggregate ns/laps keep counting past it.
  static constexpr std::uint64_t kMaxLoggedSpans = 50000;

  bool enabled_ = false;
  PhaseProfile* profile_ = nullptr;
  TraceLog* log_ = nullptr;
  std::uint64_t last_ = 0;
  std::uint64_t ticks_[kPhaseCount] = {};
  PhaseProfile profile_scratch_;  ///< laps counted here until finish()
  std::uint64_t logged_spans_ = 0;
  double log_last_us_ = 0.0;
  bool finished_ = false;
  std::uint64_t tick_epoch_ = 0;
  std::chrono::steady_clock::time_point wall_epoch_;
};

#else  // !BAS_PROFILE

/// Compiled-out shell: every member is an empty inline, so the
/// simulator's mark()/lap() calls vanish entirely in default builds.
class PhaseClock {
 public:
  PhaseClock(PhaseProfile*, TraceLog*) {}
  void mark() {}
  void lap(Phase) {}
  void finish() {}
};

#endif  // BAS_PROFILE

}  // namespace bas::obs
