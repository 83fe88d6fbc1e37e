// Tests for the core scheme module and analysis helpers, plus the
// noisy-oracle estimator used by the Table 1 harness.

#include <gtest/gtest.h>

#include "analysis/compare.hpp"
#include "battery/ideal.hpp"
#include "core/scheme.hpp"
#include "sched/estimator.hpp"
#include "tgff/workload.hpp"

namespace bas {
namespace {

TEST(SchemeFactory, AllTable2KindsConstruct) {
  for (const auto kind : core::table2_schemes()) {
    const auto scheme = core::make_scheme(kind, 1e9, 7);
    EXPECT_FALSE(scheme.name.empty());
    EXPECT_NE(scheme.dvs, nullptr);
    EXPECT_NE(scheme.priority, nullptr);
    EXPECT_NE(scheme.estimator, nullptr);
  }
}

TEST(SchemeFactory, NamesMatchPaperRows) {
  EXPECT_EQ(core::to_string(core::SchemeKind::kEdfNoDvs), "EDF");
  EXPECT_EQ(core::to_string(core::SchemeKind::kCcEdfRandom), "ccEDF");
  EXPECT_EQ(core::to_string(core::SchemeKind::kLaEdfRandom), "laEDF");
  EXPECT_EQ(core::to_string(core::SchemeKind::kBas1), "BAS-1");
  EXPECT_EQ(core::to_string(core::SchemeKind::kBas2), "BAS-2");
}

TEST(SchemeFactory, OnlyBas2UsesAllReleasedScope) {
  for (const auto kind : core::table2_schemes()) {
    const auto scheme = core::make_scheme(kind, 1e9);
    if (kind == core::SchemeKind::kBas2) {
      EXPECT_EQ(scheme.scope, core::ReadyScope::kAllReleased);
    } else {
      EXPECT_EQ(scheme.scope, core::ReadyScope::kMostImminent);
    }
  }
}

TEST(SchemeReset, ClearsEstimatorHistory) {
  auto scheme = core::make_scheme(core::SchemeKind::kBas1, 1e9);
  scheme.estimator->observe(0, 0, 10.0);
  for (int i = 0; i < 50; ++i) {
    scheme.estimator->observe(0, 0, 10.0);
  }
  EXPECT_NEAR(scheme.estimator->estimate(0, 0, 100.0, 0.0), 10.0, 1.0);
  scheme.reset();
  EXPECT_NEAR(scheme.estimator->estimate(0, 0, 100.0, 0.0), 60.0, 1e-9);
}

TEST(NoisyOracle, StaysWithinBounds) {
  auto e = sched::make_noisy_oracle_estimator(0.25, 3);
  for (int i = 0; i < 1000; ++i) {
    const double est = e->estimate(0, 0, 100.0, 60.0);
    EXPECT_GE(est, 60.0 * 0.75 - 1e-9);
    EXPECT_LE(est, 100.0 + 1e-9);  // clamped at wc
  }
}

TEST(NoisyOracle, ZeroNoiseIsOracle) {
  auto e = sched::make_noisy_oracle_estimator(0.0, 3);
  EXPECT_DOUBLE_EQ(e->estimate(0, 0, 100.0, 42.0), 42.0);
}

TEST(NoisyOracle, ResetReplaysStream) {
  auto e = sched::make_noisy_oracle_estimator(0.3, 5);
  const double a = e->estimate(0, 0, 100.0, 50.0);
  e->estimate(0, 0, 100.0, 50.0);
  e->reset();
  EXPECT_DOUBLE_EQ(e->estimate(0, 0, 100.0, 50.0), a);
}

TEST(NoisyOracle, RejectsBadNoise) {
  EXPECT_THROW(sched::make_noisy_oracle_estimator(1.5), std::invalid_argument);
  EXPECT_THROW(sched::make_noisy_oracle_estimator(-0.1),
               std::invalid_argument);
}

TEST(CompareSchemes, PreservesOrderAndNames) {
  util::Rng rng(3);
  const auto set = tgff::paper_workload(2, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 3.0;
  const auto outcomes = analysis::compare_schemes(
      set, proc, {core::SchemeKind::kBas2, core::SchemeKind::kEdfNoDvs},
      config);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].scheme, "BAS-2");
  EXPECT_EQ(outcomes[1].scheme, "EDF");
}

TEST(CompareSchemes, BatteryPrototypeIsNotConsumed) {
  util::Rng rng(4);
  const auto set = tgff::paper_workload(2, rng);
  const auto proc = dvs::Processor::paper_default();
  const bat::IdealBattery prototype(bat::to_coulombs(2000.0));
  sim::SimConfig config;
  config.horizon_s = 3.0;
  config.drain = false;
  const auto outcomes = analysis::compare_schemes(
      set, proc, core::table2_schemes(), config, &prototype);
  EXPECT_DOUBLE_EQ(prototype.charge_delivered_c(), 0.0);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.result.battery_attached) << o.scheme;
    EXPECT_GT(o.result.battery_delivered_mah, 0.0) << o.scheme;
  }
}

TEST(CompareSchemes, CommonRandomNumbersAcrossSchemes) {
  // Same seed -> the no-DVS busy time is a pure function of the actual
  // computations; two compare_schemes calls must agree exactly.
  util::Rng rng(5);
  const auto set = tgff::paper_workload(2, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 4.0;
  const auto a = analysis::compare_schemes(
      set, proc, {core::SchemeKind::kEdfNoDvs}, config);
  const auto b = analysis::compare_schemes(
      set, proc, {core::SchemeKind::kEdfNoDvs}, config);
  EXPECT_DOUBLE_EQ(a[0].result.busy_s, b[0].result.busy_s);
  EXPECT_DOUBLE_EQ(a[0].result.energy_j, b[0].result.energy_j);
}

TEST(NearOptimal, StripPrecedenceNeverIncreasesEnergy) {
  // Relaxing precedence can only widen the scheduler's choices; with
  // the oracle estimator the near-optimal reference should sit at or
  // below the same scheme run on the constrained workload.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    util::Rng rng(seed);
    tgff::WorkloadParams wp;
    wp.graph_count = 3;
    wp.target_utilization = 0.9;
    const auto set = tgff::make_workload(wp, rng);
    const auto proc = dvs::Processor::paper_default();
    sim::SimConfig config;
    config.horizon_s = 6.0;
    config.seed = seed;

    core::Scheme constrained = core::make_custom_scheme(
        "constrained", dvs::make_la_edf(proc.fmax_hz()),
        sched::make_pubs_priority(), sched::make_oracle_estimator(),
        core::ReadyScope::kAllReleased);
    sim::Simulator sim(set, proc, constrained, config);
    const double constrained_energy = sim.run().energy_j;
    const double relaxed_energy =
        analysis::near_optimal_energy_j(set, proc, config);
    EXPECT_LE(relaxed_energy, constrained_energy * 1.01) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bas
