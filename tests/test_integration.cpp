// Integration & property tests across the whole stack: the paper's
// central guarantee — the methodology never violates deadlines or
// precedence constraints, for ANY combination of DVS policy and priority
// function — swept over random workloads, plus end-to-end shape checks
// of the headline results.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "analysis/compare.hpp"
#include "battery/kibam.hpp"
#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tgff/workload.hpp"

namespace bas {
namespace {

// ---- the deadline-safety property sweep -----------------------------------

struct SweepCase {
  core::SchemeKind kind;
  int graphs;
  std::uint64_t seed;
};

class DeadlineSafety
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DeadlineSafety, NoMissesNoViolationsUnderEdfGuarantee) {
  const auto [kind_idx, graphs, seed] = GetParam();
  const auto kind = core::table2_schemes()[static_cast<std::size_t>(kind_idx)];

  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919u + 13u);
  tgff::WorkloadParams wp;
  wp.graph_count = graphs;
  wp.target_utilization = 0.95;  // inside the EDF guarantee
  wp.period_lo_s = 0.05;
  wp.period_hi_s = 0.5;
  const auto set = tgff::make_workload(wp, rng);

  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 5.0;
  config.drain = true;
  config.seed = static_cast<std::uint64_t>(seed) + 1000u;
  config.record_trace = true;

  const auto result = sim::simulate_scheme(set, proc, kind, config);
  EXPECT_EQ(result.deadline_misses, 0u) << core::to_string(kind);
  const auto audit = sim::audit_trace(result.trace, set, proc, true);
  EXPECT_TRUE(audit.ok) << core::to_string(kind) << ": " << audit.summary();
  EXPECT_EQ(result.instances_released, result.instances_completed);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesGraphsSeeds, DeadlineSafety,
    ::testing::Combine(::testing::Range(0, 5),       // all 5 schemes
                       ::testing::Values(1, 3, 6),   // set sizes
                       ::testing::Values(1, 2, 3)));  // workload seeds

// ---- any DVS x any priority composes safely (paper §4 closing claim) ------

class Composability
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Composability, ArbitraryCompositionMeetsDeadlines) {
  const auto [dvs_idx, prio_idx, scope_idx] = GetParam();
  const auto proc = dvs::Processor::paper_default();

  auto make_dvs = [&]() -> std::unique_ptr<dvs::DvsPolicy> {
    switch (dvs_idx) {
      case 0:
        return dvs::make_no_dvs(proc.fmax_hz());
      case 1:
        return dvs::make_static_dvs(proc.fmax_hz());
      case 2:
        return dvs::make_cc_edf(proc.fmax_hz());
      default:
        return dvs::make_la_edf(proc.fmax_hz());
    }
  };
  auto make_prio = [&]() -> std::unique_ptr<sched::PriorityPolicy> {
    switch (prio_idx) {
      case 0:
        return sched::make_pubs_priority();
      case 1:
        return sched::make_ltf_priority();
      case 2:
        return sched::make_stf_priority();
      case 3:
        return sched::make_fifo_priority();
      default:
        return sched::make_random_priority(99);
    }
  };
  const auto scope = scope_idx == 0 ? core::ReadyScope::kMostImminent
                                    : core::ReadyScope::kAllReleased;

  util::Rng rng(static_cast<std::uint64_t>(dvs_idx * 100 + prio_idx * 10 +
                                           scope_idx));
  tgff::WorkloadParams wp;
  wp.graph_count = 4;
  wp.target_utilization = 0.9;
  wp.period_lo_s = 0.05;
  wp.period_hi_s = 0.5;
  const auto set = tgff::make_workload(wp, rng);

  core::Scheme scheme = core::make_custom_scheme(
      "custom", make_dvs(), make_prio(), sched::make_history_estimator(),
      scope);
  sim::SimConfig config;
  config.horizon_s = 3.0;
  config.record_trace = true;
  sim::Simulator simulator(set, proc, scheme, config);
  const auto result = simulator.run();
  EXPECT_EQ(result.deadline_misses, 0u)
      << "dvs=" << dvs_idx << " prio=" << prio_idx << " scope=" << scope_idx;
  const auto audit = sim::audit_trace(result.trace, set, proc, true);
  EXPECT_TRUE(audit.ok) << audit.summary();
}

INSTANTIATE_TEST_SUITE_P(
    DvsPriorityScope, Composability,
    ::testing::Combine(::testing::Range(0, 4),    // 4 DVS policies
                       ::testing::Range(0, 5),    // 5 priorities
                       ::testing::Range(0, 2)));  // 2 scopes

// ---- headline shape checks -------------------------------------------------

TEST(Headline, DvsSavesEnergyOverNoDvs) {
  util::Rng rng(404);
  const auto set = tgff::paper_workload(3, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 20.0;
  const auto outcomes = analysis::compare_schemes(
      set, proc,
      {core::SchemeKind::kEdfNoDvs, core::SchemeKind::kCcEdfRandom,
       core::SchemeKind::kLaEdfRandom},
      config);
  EXPECT_GT(outcomes[0].result.energy_j, outcomes[1].result.energy_j);
  EXPECT_GT(outcomes[0].result.energy_j, outcomes[2].result.energy_j);
}

TEST(Headline, Table2LifetimeOrderingOnFixedSeed) {
  // The paper's Table 2 ordering on one fixed, representative seed (the
  // full distributional claim is the bench's job; a unit test needs a
  // deterministic assertion).
  util::Rng rng(2006);
  tgff::WorkloadParams wp;
  wp.graph_count = 3;
  wp.target_utilization = 0.7 / 0.6;  // 70% actual utilization regime
  wp.period_lo_s = 0.5;
  wp.period_hi_s = 5.0;
  const auto set = tgff::make_workload(wp, rng);

  const auto proc = dvs::Processor::paper_default();
  const bat::KibamBattery battery(bat::KibamParams::paper_aaa_nimh());
  sim::SimConfig config;
  config.horizon_s = 24.0 * 3600.0;
  config.drain = false;
  config.ac_model = sim::AcModel::kPerNodeMean;
  config.seed = 99;

  const auto outcomes = analysis::compare_schemes(
      set, proc, core::table2_schemes(), config, &battery);
  ASSERT_EQ(outcomes.size(), 5u);
  const double edf = outcomes[0].result.battery_lifetime_s;
  const double cc = outcomes[1].result.battery_lifetime_s;
  const double la = outcomes[2].result.battery_lifetime_s;
  const double bas1 = outcomes[3].result.battery_lifetime_s;
  const double bas2 = outcomes[4].result.battery_lifetime_s;
  EXPECT_LT(edf, cc);
  EXPECT_LT(cc, la);
  EXPECT_LE(la, bas1 * (1.0 + 1e-9));
  EXPECT_LT(la, bas2);
  EXPECT_GT(bas2, bas1 * 0.999);
  // Everyone died; no scheme hit the horizon cap.
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.result.battery_died) << o.scheme;
    EXPECT_EQ(o.result.deadline_misses, 0u) << o.scheme;
  }
}

/// Upward current steps of a run's battery-current profile, read off the
/// trace: consecutive slices in time order, with any gap between them
/// drawing the processor's idle current.
std::size_t current_increases(const sim::SimResult& result,
                              const dvs::Processor& proc) {
  constexpr double kTol = 1e-9;
  std::size_t count = 0;
  // The first segment has no predecessor, so it is never a step up.
  double previous = std::numeric_limits<double>::infinity();
  double previous_end = 0.0;
  for (const auto& slice : result.trace) {
    if (slice.start_s > previous_end + kTol) {
      count += proc.idle_current_a() > previous + kTol ? 1 : 0;
      previous = proc.idle_current_a();
    }
    count += slice.current_a > previous + kTol ? 1 : 0;
    previous = slice.current_a;
    previous_end = slice.end_s;
  }
  return count;
}

TEST(Headline, Bas2ProfileIsSmootherThanNoDvs) {
  // Guideline-1 proxy: BAS-2's current profile has far fewer upward
  // jumps per unit time than EDF-without-DVS's on/off profile.
  util::Rng rng(7);
  const auto set = tgff::paper_workload(3, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 20.0;
  config.record_trace = true;
  const auto edf = sim::simulate_scheme(
      set, proc, core::SchemeKind::kEdfNoDvs, config);
  const auto bas2 =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  EXPECT_LT(current_increases(bas2, proc), current_increases(edf, proc) / 2);
}

TEST(Headline, NearOptimalReferenceLowerBoundsOrderedSchemes) {
  util::Rng rng(31);
  tgff::WorkloadParams wp;
  wp.graph_count = 4;
  wp.target_utilization = 0.9;
  const auto set = tgff::make_workload(wp, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 10.0;
  const double near_opt = analysis::near_optimal_energy_j(set, proc, config);
  const auto bas2 =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  // Precedence-free oracle scheduling should not lose to the constrained
  // real scheme (allow 2% tolerance: it is a heuristic, not a bound).
  EXPECT_LT(near_opt, bas2.energy_j * 1.02);
}

TEST(StripPrecedence, KeepsNodesDropsEdges) {
  util::Rng rng(8);
  const auto set = tgff::paper_workload(2, rng);
  const auto stripped = analysis::strip_precedence(set);
  ASSERT_EQ(stripped.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(stripped.graph(i).node_count(), set.graph(i).node_count());
    EXPECT_EQ(stripped.graph(i).edge_count(), 0u);
    EXPECT_DOUBLE_EQ(stripped.graph(i).total_wcet_cycles(),
                     set.graph(i).total_wcet_cycles());
    EXPECT_DOUBLE_EQ(stripped.graph(i).period(), set.graph(i).period());
  }
}

TEST(Schemes, FactoryShapesMatchTable2) {
  const auto kinds = core::table2_schemes();
  ASSERT_EQ(kinds.size(), 5u);
  const auto edf = core::make_scheme(core::SchemeKind::kEdfNoDvs, 1e9);
  EXPECT_EQ(edf.dvs->name(), "noDVS");
  EXPECT_EQ(edf.priority->name(), "Random");
  EXPECT_EQ(edf.scope, core::ReadyScope::kMostImminent);
  const auto bas2 = core::make_scheme(core::SchemeKind::kBas2, 1e9);
  EXPECT_EQ(bas2.dvs->name(), "laEDF");
  EXPECT_EQ(bas2.priority->name(), "pUBS");
  EXPECT_EQ(bas2.scope, core::ReadyScope::kAllReleased);
  EXPECT_EQ(bas2.name, "BAS-2");
}

TEST(Schemes, CustomCompositionValidatesComponents) {
  EXPECT_THROW(core::make_custom_scheme("x", nullptr,
                                        sched::make_pubs_priority(),
                                        sched::make_oracle_estimator(),
                                        core::ReadyScope::kMostImminent),
               std::invalid_argument);
}

}  // namespace
}  // namespace bas
