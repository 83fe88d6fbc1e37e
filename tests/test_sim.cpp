// Simulator tests: mechanics (releases, preemption, slack accounting,
// profiles), trace auditing, and behaviour of individual schemes on
// hand-built workloads.

#include <gtest/gtest.h>

#include <cmath>

#include "battery/ideal.hpp"
#include "battery/kibam.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tgff/workload.hpp"

namespace bas {
namespace {

tg::TaskGraphSet single_task_set(double wc_cycles, double period_s) {
  tg::TaskGraphSet set;
  tg::TaskGraph g(period_s, "solo");
  g.add_node(wc_cycles);
  set.add(std::move(g));
  return set;
}

sim::SimConfig quick_config(double horizon = 10.0) {
  sim::SimConfig c;
  c.horizon_s = horizon;
  c.drain = true;
  c.seed = 42;
  c.record_trace = true;
  c.record_profile = true;
  return c;
}

TEST(Simulator, ReleasesOncePerPeriod) {
  const auto set = single_task_set(3e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  const auto result = sim::simulate_scheme(
      set, proc, core::SchemeKind::kEdfNoDvs, quick_config(10.0));
  EXPECT_EQ(result.instances_released, 10u);
  EXPECT_EQ(result.instances_completed, 10u);
  EXPECT_EQ(result.nodes_executed, 10u);
  EXPECT_EQ(result.deadline_misses, 0u);
}

TEST(Simulator, NoDvsRunsAtFmaxAndIdles) {
  const auto set = single_task_set(3e8, 1.0);  // <= 0.3s busy at 1 GHz
  const auto proc = dvs::Processor::paper_default();
  const auto result = sim::simulate_scheme(
      set, proc, core::SchemeKind::kEdfNoDvs, quick_config(10.0));
  for (const auto& slice : result.trace) {
    EXPECT_DOUBLE_EQ(slice.freq_hz, 1e9);
  }
  // Busy fraction == actual utilization; the rest idles. In drain mode
  // the run ends when the last released instance completes.
  EXPECT_LT(result.busy_s, 0.35 * result.end_time_s);
  EXPECT_GT(result.end_time_s, 9.0 - 1e-9);
  EXPECT_LE(result.end_time_s, 10.0 + 1e-9);
}

TEST(Simulator, CcEdfStretchesExecution) {
  const auto set = single_task_set(3e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  const auto no_dvs = sim::simulate_scheme(
      set, proc, core::SchemeKind::kEdfNoDvs, quick_config(10.0));
  const auto cc = sim::simulate_scheme(
      set, proc, core::SchemeKind::kCcEdfRandom, quick_config(10.0));
  EXPECT_GT(cc.busy_s, no_dvs.busy_s * 1.3);
  EXPECT_LT(cc.energy_j, no_dvs.energy_j);
  EXPECT_EQ(cc.deadline_misses, 0u);
}

TEST(Simulator, EnergyMatchesProfileCharge) {
  // charge_c must equal the integral of the recorded profile.
  const auto set = single_task_set(4e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  const auto result = sim::simulate_scheme(
      set, proc, core::SchemeKind::kCcEdfRandom, quick_config(5.0));
  EXPECT_NEAR(result.charge_c, result.profile.total_charge_c(), 1e-9);
  EXPECT_NEAR(result.profile.duration_s(), result.end_time_s, 1e-6);
}

TEST(Simulator, TraceAuditCleanOnHandBuiltWorkload) {
  tg::TaskGraphSet set;
  tg::TaskGraph a(1.0, "a");
  const auto a0 = a.add_node(1e8);
  const auto a1 = a.add_node(1e8);
  a.add_edge(a0, a1);
  set.add(std::move(a));
  tg::TaskGraph b(1.5, "b");
  b.add_node(2e8);
  set.add(std::move(b));

  const auto proc = dvs::Processor::paper_default();
  for (const auto kind : core::table2_schemes()) {
    const auto result =
        sim::simulate_scheme(set, proc, kind, quick_config(12.0));
    const auto audit = sim::audit_trace(result.trace, set, proc, true);
    EXPECT_TRUE(audit.ok) << core::to_string(kind) << ": "
                          << audit.summary();
    EXPECT_EQ(result.deadline_misses, 0u) << core::to_string(kind);
  }
}

TEST(Simulator, PreemptionOnNewRelease) {
  // Long-period graph with a big node gets preempted by a short-period
  // graph's releases under EDF.
  tg::TaskGraphSet set;
  tg::TaskGraph big(10.0, "big");
  big.add_node(5e9);  // 5 s at fmax
  set.add(std::move(big));
  tg::TaskGraph small(0.5, "small");
  small.add_node(1e8);
  set.add(std::move(small));

  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config = quick_config(10.0);
  config.ac_lo_frac = 0.999;  // ~worst case so the big node stays busy
  config.ac_hi_frac = 1.0;
  const auto result =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, config);
  EXPECT_GT(result.preemptions, 5u);
  EXPECT_EQ(result.deadline_misses, 0u);
  const auto audit = sim::audit_trace(result.trace, set, proc, true);
  EXPECT_TRUE(audit.ok) << audit.summary();
}

TEST(Simulator, ActualsAreSeedStableAcrossSchemes) {
  // Common random numbers: for a fixed config seed, every scheme faces
  // identical released work (same end time in drain mode is a proxy:
  // total cycles equal -> no-DVS busy time equal).
  const auto set = single_task_set(3e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  const auto r1 = sim::simulate_scheme(set, proc,
                                       core::SchemeKind::kEdfNoDvs,
                                       quick_config(8.0));
  const auto r2 = sim::simulate_scheme(set, proc,
                                       core::SchemeKind::kEdfNoDvs,
                                       quick_config(8.0));
  EXPECT_DOUBLE_EQ(r1.busy_s, r2.busy_s);
  EXPECT_DOUBLE_EQ(r1.energy_j, r2.energy_j);
}

TEST(Simulator, DifferentSeedsChangeActuals) {
  const auto set = single_task_set(3e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  auto c1 = quick_config(8.0);
  auto c2 = quick_config(8.0);
  c2.seed = 43;
  const auto r1 =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, c1);
  const auto r2 =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, c2);
  EXPECT_NE(r1.busy_s, r2.busy_s);
}

TEST(Simulator, PerNodeMeanModelIsMoreAutocorrelated) {
  // Under kPerNodeMean the same node's actuals cluster around its mean;
  // the no-DVS busy time is steadier across windows than under kIid.
  // Here we just verify both models produce valid runs with actuals in
  // range (busy fraction between 20% and 100% of the wc utilization).
  const auto set = single_task_set(5e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  for (const auto model : {sim::AcModel::kIid, sim::AcModel::kPerNodeMean}) {
    auto config = quick_config(20.0);
    config.ac_model = model;
    const auto r =
        sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, config);
    const double busy_frac = r.busy_s / r.end_time_s;
    EXPECT_GE(busy_frac, 0.2 * 0.5 - 1e-9);
    EXPECT_LE(busy_frac, 0.5 + 1e-9);
    EXPECT_EQ(r.deadline_misses, 0u);
  }
}

TEST(Simulator, DrainCompletesAllReleasedInstances) {
  util::Rng rng(77);
  const auto set = tgff::paper_workload(3, rng);
  const auto proc = dvs::Processor::paper_default();
  auto config = quick_config(5.0);
  const auto result =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  EXPECT_EQ(result.instances_released, result.instances_completed);
  // Drain can run past the horizon but not past the last deadline.
  double max_deadline = 0.0;
  for (const auto& g : set) {
    max_deadline = std::max(
        max_deadline,
        std::ceil(config.horizon_s / g.period()) * g.period());
  }
  EXPECT_LE(result.end_time_s, max_deadline + 1e-6);
}

TEST(Simulator, BatteryRunStopsAtCutoff) {
  const auto set = single_task_set(9e8, 1.0);  // heavy load
  const auto proc = dvs::Processor::paper_default();
  bat::KibamBattery battery(bat::KibamParams::paper_aaa_nimh());
  auto config = quick_config(1e6);
  config.drain = false;
  config.record_trace = false;
  config.record_profile = false;
  core::Scheme scheme =
      core::make_scheme(core::SchemeKind::kEdfNoDvs, proc.fmax_hz(), 1);
  sim::Simulator simulator(set, proc, scheme, config);
  const auto result = simulator.run(&battery);
  EXPECT_TRUE(result.battery_died);
  EXPECT_GT(result.battery_lifetime_s, 60.0);
  EXPECT_LT(result.end_time_s, 1e6);
  EXPECT_NEAR(result.battery_delivered_mah,
              battery.charge_delivered_mah(), 1e-9);
  // Lifetime anchor: ~90%-utilization full-speed load dies within a
  // couple of hours on the 2000 mAh cell.
  EXPECT_LT(result.battery_lifetime_s, 3.0 * 3600.0);
}

TEST(Simulator, IdleBatteryLastsUntilHorizon) {
  // Nearly idle workload: the battery must not die.
  const auto set = single_task_set(1e6, 10.0);
  const auto proc = dvs::Processor::paper_default();
  bat::IdealBattery battery(bat::to_coulombs(2000.0));
  auto config = quick_config(100.0);
  config.drain = false;
  core::Scheme scheme =
      core::make_scheme(core::SchemeKind::kBas2, proc.fmax_hz(), 1);
  sim::Simulator simulator(set, proc, scheme, config);
  const auto result = simulator.run(&battery);
  EXPECT_FALSE(result.battery_died);
  EXPECT_GE(result.end_time_s, 100.0 - 1e-6);
}

TEST(Simulator, RejectsBadConfig) {
  const auto set = single_task_set(1e8, 1.0);
  const auto proc = dvs::Processor::paper_default();
  core::Scheme scheme =
      core::make_scheme(core::SchemeKind::kBas2, proc.fmax_hz(), 1);
  sim::SimConfig bad;
  bad.horizon_s = 0.0;
  EXPECT_THROW(sim::Simulator(set, proc, scheme, bad),
               std::invalid_argument);
  bad = sim::SimConfig{};
  bad.ac_lo_frac = 0.0;
  EXPECT_THROW(sim::Simulator(set, proc, scheme, bad),
               std::invalid_argument);
  bad = sim::SimConfig{};
  bad.ac_hi_frac = 0.1;  // < lo
  EXPECT_THROW(sim::Simulator(set, proc, scheme, bad),
               std::invalid_argument);
}

TEST(TraceAudit, DetectsViolations) {
  tg::TaskGraphSet set;
  tg::TaskGraph g(1.0, "g");
  const auto n0 = g.add_node(1e8);
  const auto n1 = g.add_node(1e8);
  g.add_edge(n0, n1);
  set.add(std::move(g));
  const auto proc = dvs::Processor::paper_default();

  // Overlapping slices.
  std::vector<sim::ExecSlice> overlap{
      {0, 0, 0, 0.0, 0.3, 1e9, 1.0, 0.0, 1.0},
      {0, 0, 1, 0.2, 0.5, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_FALSE(sim::audit_trace(overlap, set, proc, false).ok);

  // Precedence violation: successor first.
  std::vector<sim::ExecSlice> prec{
      {0, 0, 1, 0.0, 0.1, 1e9, 1.0, 0.0, 1.0},
      {0, 0, 0, 0.1, 0.2, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_GT(sim::audit_trace(prec, set, proc, false).precedence_violations,
            0u);

  // Outside the instance window (deadline miss).
  std::vector<sim::ExecSlice> window{
      {0, 0, 0, 0.0, 0.1, 1e9, 1.0, 0.0, 1.0},
      {0, 0, 1, 0.95, 1.2, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_GT(sim::audit_trace(window, set, proc, false).window_violations, 0u);

  // Frequency outside the processor range.
  std::vector<sim::ExecSlice> freq{
      {0, 0, 0, 0.0, 0.1, 2e9, 1.0, 0.0, 1.0},
      {0, 0, 1, 0.1, 0.2, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_GT(sim::audit_trace(freq, set, proc, false).frequency_violations,
            0u);

  // Incomplete instance in drained mode.
  std::vector<sim::ExecSlice> incomplete{
      {0, 0, 0, 0.0, 0.1, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_GT(sim::audit_trace(incomplete, set, proc, true)
                .incomplete_instances,
            0u);
  EXPECT_TRUE(sim::audit_trace(incomplete, set, proc, false).ok);

  // A clean trace passes.
  std::vector<sim::ExecSlice> clean{
      {0, 0, 0, 0.0, 0.1, 1e9, 1.0, 0.0, 1.0},
      {0, 0, 1, 0.1, 0.2, 1e9, 1.0, 0.0, 1.0}};
  EXPECT_TRUE(sim::audit_trace(clean, set, proc, true).ok);

  // Windows come from the slices, not from instance * period: instance 3
  // released early at 0.5 s (a jittered or sporadic arrival) is clean
  // inside its own [0.5, 1.5] window and late outside it.
  std::vector<sim::ExecSlice> shifted{
      {0, 3, 0, 0.5, 0.6, 1e9, 1.0, 0.5, 1.5},
      {0, 3, 1, 0.6, 0.7, 1e9, 1.0, 0.5, 1.5}};
  EXPECT_TRUE(sim::audit_trace(shifted, set, proc, true).ok);
  shifted[1].end_s = 1.6;
  EXPECT_EQ(sim::audit_trace(shifted, set, proc, true).window_violations, 1u);
}

TEST(Simulator, PerfCountersCountWorkWithoutChangingResults) {
  const auto set = single_task_set(3e8, 1.0);
  const auto proc = dvs::Processor::paper_default();

  auto config = quick_config(10.0);
  const auto plain = sim::simulate_scheme(set, proc,
                                          core::SchemeKind::kBas2, config);
  config.record_perf_counters = true;
  bat::KibamBattery battery(bat::KibamParams::paper_aaa_nimh());
  const auto counted = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &battery);

  // Off by default; on request the counters reflect the run's work.
  EXPECT_EQ(plain.perf.steps, 0u);
  EXPECT_EQ(plain.perf.battery_draws, 0u);
  EXPECT_GE(counted.perf.steps, counted.instances_released);
  EXPECT_GT(counted.perf.battery_draws, 0u);
  EXPECT_GE(counted.perf.candidates_scored, counted.nodes_executed);
  // Zero-alloc steady state: only the warmup growth of the reused
  // scratch buffers, bounded far below one per step.
  EXPECT_LT(counted.perf.scratch_grows, counted.perf.steps / 10 + 16);

  // Counting must not perturb a single output bit (battery-free runs
  // are comparable across the two configs).
  const auto recount = sim::simulate_scheme(set, proc,
                                            core::SchemeKind::kBas2, config);
  EXPECT_EQ(recount.end_time_s, plain.end_time_s);
  EXPECT_EQ(recount.energy_j, plain.energy_j);
  EXPECT_EQ(recount.charge_c, plain.charge_c);
  EXPECT_EQ(recount.nodes_executed, plain.nodes_executed);
}

TEST(TraceAudit, SummaryMentionsFirstProblem) {
  tg::TaskGraphSet set;
  tg::TaskGraph g(1.0, "g");
  g.add_node(1e8);
  set.add(std::move(g));
  const auto proc = dvs::Processor::paper_default();
  std::vector<sim::ExecSlice> bad{
      {0, 0, 0, 0.0, 1.5, 1e9, 1.0, 0.0, 1.0}};
  const auto audit = sim::audit_trace(bad, set, proc, false);
  EXPECT_FALSE(audit.ok);
  EXPECT_NE(audit.summary().find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace bas
