// Battery merge-window equivalence suite.
//
// The simulator evaluates the battery either per executed slice
// (SimConfig::battery_window_s <= 0, or any run recording a profile or
// trace) or over charge-equivalent merge windows (the default 5 s — see
// EXPERIMENTS.md, "Event-driven core"). Both modes walk the same
// scheduling trajectory; merging may move lifetime and charge figures
// by well under 0.1% on the calibrated kernels, every scheme ordering
// is preserved, and runs that record a profile agree draw-for-draw with
// window-0 runs. These tests pin those contracts with explicit
// tolerances; byte-identity of each mode's CLI output is pinned
// separately by the golden smoke.

#include <gtest/gtest.h>

#include <cmath>

#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

// Relative-difference gate for merged-vs-exact battery figures. The
// observed shift at the default 5 s window is < 0.1%; the gate leaves
// headroom so the test checks the contract, not one machine's noise.
constexpr double kLifetimeRelTol = 5e-3;

constexpr double kExact = 0.0;   // merging off: one draw per slice
constexpr double kMerged = 5.0;  // the default merge window

sim::SimResult run_scenario(const std::string& name, core::SchemeKind kind,
                            std::uint64_t seed, double window_s,
                            bool audit = false, double horizon_s = 0.0) {
  const auto& spec = scenario::scenario(name);
  util::Rng rng(seed);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(seed, 1000u));
  config.battery_window_s = window_s;
  config.record_trace = audit;
  config.record_perf_counters = true;
  if (horizon_s > 0.0) {
    config.horizon_s = horizon_s;
  }
  auto battery = scenario::make_battery(spec.battery);
  return sim::simulate_scheme(set, proc, kind, config, battery.get());
}

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom > 0.0 ? std::abs(a - b) / denom : 0.0;
}

TEST(WindowEquivalence, DenseLifetimeAndFeasibilityAgree) {
  // paper-table2: the dense anchor cell, every Table 2 scheme, same
  // seeds, workloads and arrival draws in both modes.
  for (const auto kind : core::table2_schemes()) {
    const auto exact = run_scenario("paper-table2", kind, 11, kExact);
    const auto merged = run_scenario("paper-table2", kind, 11, kMerged);
    EXPECT_LT(rel_diff(exact.battery_lifetime_s, merged.battery_lifetime_s),
              kLifetimeRelTol)
        << core::to_string(kind);
    EXPECT_LT(rel_diff(exact.battery_delivered_mah,
                       merged.battery_delivered_mah),
              kLifetimeRelTol)
        << core::to_string(kind);
    // Feasibility: the miss count may shift by at most the documented
    // one-window slop.
    EXPECT_LE(std::abs(static_cast<double>(exact.deadline_misses) -
                       static_cast<double>(merged.deadline_misses)),
              2.0)
        << core::to_string(kind);
  }
}

TEST(WindowEquivalence, GuidelineScenarioAgrees) {
  for (const auto kind :
       {core::SchemeKind::kLaEdfRandom, core::SchemeKind::kBas2}) {
    const auto exact = run_scenario("paper-guideline1", kind, 23, kExact);
    const auto merged = run_scenario("paper-guideline1", kind, 23, kMerged);
    EXPECT_LT(rel_diff(exact.battery_lifetime_s, merged.battery_lifetime_s),
              kLifetimeRelTol)
        << core::to_string(kind);
    EXPECT_LT(rel_diff(exact.energy_j, merged.energy_j), kLifetimeRelTol)
        << core::to_string(kind);
  }
}

TEST(WindowEquivalence, SparseScenariosAgree) {
  // Idle-heavy and sporadic traffic, where merging saves the most. A
  // shortened horizon keeps the test fast; the merge behaviour is the
  // same from the first window on.
  for (const char* name : {"idle-heavy", "sporadic-sensor"}) {
    const auto exact =
        run_scenario(name, core::SchemeKind::kBas2, 7, kExact, false, 3600.0);
    const auto merged =
        run_scenario(name, core::SchemeKind::kBas2, 7, kMerged, false, 3600.0);
    EXPECT_LT(rel_diff(exact.end_time_s, merged.end_time_s), kLifetimeRelTol)
        << name;
    EXPECT_LT(rel_diff(exact.charge_c, merged.charge_c), kLifetimeRelTol)
        << name;
    EXPECT_EQ(exact.instances_released, merged.instances_released) << name;
    // Both modes jump the same empty time (sparse by construction).
    EXPECT_GT(exact.perf.idle_time_jumped_s, 0.0) << name;
    EXPECT_GT(merged.perf.idle_time_jumped_s, 0.0) << name;
  }
}

TEST(WindowEquivalence, TraceRecordingRunsMatchWindowZeroBitwise) {
  // Recording a trace disables merging even at the default window:
  // the run then makes the window-0 run's kernel calls in the same
  // order, so every figure is bit-equal, not merely close.
  const auto audit = run_scenario("paper-table2", core::SchemeKind::kBas2,
                                  31, kMerged, /*audit=*/true);
  const auto exact = run_scenario("paper-table2", core::SchemeKind::kBas2,
                                  31, kExact);
  EXPECT_EQ(audit.end_time_s, exact.end_time_s);
  EXPECT_EQ(audit.energy_j, exact.energy_j);
  EXPECT_EQ(audit.charge_c, exact.charge_c);
  EXPECT_EQ(audit.busy_s, exact.busy_s);
  EXPECT_EQ(audit.battery_lifetime_s, exact.battery_lifetime_s);
  EXPECT_EQ(audit.battery_delivered_mah, exact.battery_delivered_mah);
  EXPECT_EQ(audit.instances_completed, exact.instances_completed);
  EXPECT_EQ(audit.deadline_misses, exact.deadline_misses);
  EXPECT_EQ(audit.nodes_executed, exact.nodes_executed);
  EXPECT_EQ(audit.preemptions, exact.preemptions);
  EXPECT_EQ(audit.perf.battery_draws, exact.perf.battery_draws);
}

TEST(WindowEquivalence, RunsAreDeterministic) {
  for (const double window_s : {kExact, kMerged}) {
    const auto a = run_scenario("paper-table2", core::SchemeKind::kBas2, 91,
                                window_s);
    const auto b = run_scenario("paper-table2", core::SchemeKind::kBas2, 91,
                                window_s);
    EXPECT_EQ(a.battery_lifetime_s, b.battery_lifetime_s) << window_s;
    EXPECT_EQ(a.charge_c, b.charge_c) << window_s;
    EXPECT_EQ(a.perf.events_popped, b.perf.events_popped) << window_s;
    EXPECT_EQ(a.perf.battery_interval_advances,
              b.perf.battery_interval_advances)
        << window_s;
  }
}

TEST(WindowEquivalence, PerfCountersAttributeTheMerge) {
  const auto exact = run_scenario("idle-heavy", core::SchemeKind::kLaEdfRandom,
                                  5, kExact, false, 3600.0);
  const auto merged = run_scenario("idle-heavy",
                                   core::SchemeKind::kLaEdfRandom, 5, kMerged,
                                   false, 3600.0);
  // Window 0: one kernel draw per slice, nothing merged.
  EXPECT_EQ(exact.perf.ticks_skipped, 0u);
  EXPECT_EQ(exact.perf.battery_interval_advances, 0u);
  EXPECT_GT(exact.perf.battery_draws, 0u);
  // Default window: per-slice draws are merged into far fewer
  // closed-form interval advances.
  EXPECT_GT(merged.perf.events_popped, 0u);
  EXPECT_GT(merged.perf.ticks_skipped, 0u);
  EXPECT_GT(merged.perf.battery_interval_advances, 0u);
  EXPECT_LT(merged.perf.battery_draws, exact.perf.battery_draws / 2);
}

}  // namespace
}  // namespace bas
