// Battery kernel fast-path and instrumentation suite: the merged-window
// interval advance (bitwise equal to a draw for every model except
// diffusion, whose strength-reduced series tracks the exact one) and the
// per-kernel work counters, both on bare cells and as routed by the
// simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "battery/diffusion.hpp"
#include "battery/ideal.hpp"
#include "battery/kibam.hpp"
#include "battery/peukert.hpp"
#include "battery/stochastic.hpp"
#include "core/scheme.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

constexpr double kCap = bat::to_coulombs(2000.0);

std::vector<std::unique_ptr<bat::Battery>> all_models() {
  std::vector<std::unique_ptr<bat::Battery>> models;
  models.push_back(std::make_unique<bat::IdealBattery>(kCap));
  models.push_back(std::make_unique<bat::PeukertBattery>(bat::PeukertParams{}));
  models.push_back(
      std::make_unique<bat::KibamBattery>(bat::KibamParams::paper_aaa_nimh()));
  models.push_back(std::make_unique<bat::DiffusionBattery>(
      bat::DiffusionParams::paper_aaa_nimh()));
  models.push_back(
      std::make_unique<bat::StochasticBattery>(bat::StochasticParams{}));
  return models;
}

TEST(FastAdvance, NonDiffusionIntervalAdvanceIsBitwiseDraw) {
  // Every kernel except diffusion leaves do_advance_interval at its
  // default — exactly do_draw — so a merged-window advance must equal
  // the equivalent draw to the last bit.
  auto draws = all_models();
  auto advances = all_models();
  for (std::size_t m = 0; m < draws.size(); ++m) {
    if (draws[m]->name() == "diffusion") {
      continue;  // overrides do_advance_interval; covered below
    }
    for (int round = 0; round < 50; ++round) {
      const double i = (round % 3 == 0) ? 0.0 : 0.45 * (1 + round % 4);
      const double dt = 0.5 + (round % 7);
      // advance_interval reconstructs current as charge/dt; feed it the
      // product so both paths see bitwise the same current.
      const double charge = i * dt;
      const double got = advances[m]->advance_interval(charge, dt);
      const double want = draws[m]->draw(charge / dt, dt);
      ASSERT_EQ(got, want) << draws[m]->name() << " round " << round;
      ASSERT_EQ(advances[m]->charge_delivered_c(),
                draws[m]->charge_delivered_c())
          << draws[m]->name() << " round " << round;
      ASSERT_EQ(advances[m]->state_of_charge(), draws[m]->state_of_charge())
          << draws[m]->name() << " round " << round;
    }
  }
}

TEST(FastAdvance, DiffusionFastSeriesTracksExactSeries) {
  // The strength-reduced series (x = e^{-β²t}, x^{m²} by recurrence) is
  // the same mathematical sum as the per-term exp sweep, associated
  // differently — so it is NOT bitwise, but must agree to far below any
  // output precision. One cell advances through the fast path, the twin
  // through the exact per-slice path.
  bat::DiffusionBattery fast(bat::DiffusionParams::paper_aaa_nimh());
  bat::DiffusionBattery exact(bat::DiffusionParams::paper_aaa_nimh());
  const double currents[] = {1.8, 0.0, 0.98415, 0.3888};
  for (int round = 0; round < 400 && !exact.empty(); ++round) {
    const double i = currents[round % 4];
    const double dt = 2.0 + (round % 9);
    fast.advance_interval(i * dt, dt);
    exact.draw(i, dt);
    const double rel =
        std::abs(fast.apparent_charge_c() - exact.apparent_charge_c()) /
        exact.apparent_charge_c();
    ASSERT_LT(rel, 1e-12) << "round " << round;
  }
  // Death through the fast bisection lands within the same tolerance.
  const double fast_cut = fast.advance_interval(5.0 * 1e6, 1e6);
  const double exact_cut = exact.draw(5.0, 1e6);
  EXPECT_TRUE(fast.empty());
  EXPECT_TRUE(exact.empty());
  EXPECT_NEAR(fast_cut, exact_cut, 1e-6 * std::max(1.0, exact_cut));
}

TEST(Counters, DiffusionMemoAndFastPathAttribution) {
  bat::DiffusionBattery cell(bat::DiffusionParams::paper_aaa_nimh());
  const auto terms = static_cast<std::uint64_t>(
      bat::DiffusionParams::paper_aaa_nimh().series_terms);
  // Three draws at one (current, dt): one decay sweep, then memo hits.
  for (int i = 0; i < 3; ++i) {
    cell.draw(1.8, 0.5);
  }
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 1u);
  EXPECT_EQ(cell.kernel_counters().exp_calls, terms);
  EXPECT_EQ(cell.kernel_counters().decay_misses, 1u);
  EXPECT_GE(cell.kernel_counters().decay_hits, 2u);
  EXPECT_EQ(cell.kernel_counters().gain_misses, 1u);
  // A changed current at the same t refills only the gain lane.
  cell.draw(0.3888, 0.5);
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 1u);
  EXPECT_EQ(cell.kernel_counters().gain_misses, 2u);
  // The merged-window fast path: one scalar exp per advance, no sweep.
  const auto exps_before = cell.kernel_counters().exp_calls;
  cell.advance_interval(1.8 * 4.0, 4.0);
  EXPECT_EQ(cell.kernel_counters().fast_advances, 1u);
  EXPECT_EQ(cell.kernel_counters().exp_calls, exps_before + 1);
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 1u);
  cell.reset();
  EXPECT_EQ(cell.kernel_counters().exp_calls, 0u);
  EXPECT_EQ(cell.kernel_counters().fast_advances, 0u);
}

TEST(Counters, KibamAndPeukertAttribution) {
  bat::KibamBattery kibam(bat::KibamParams::paper_aaa_nimh());
  kibam.draw(0.9, 10.0);
  kibam.draw(0.0, 5.0);
  EXPECT_GE(kibam.kernel_counters().kibam_shared_exps, 2u);

  bat::PeukertBattery peukert{bat::PeukertParams{}};
  for (int i = 0; i < 4; ++i) {
    peukert.draw(0.9, 10.0);
  }
  peukert.draw(1.8, 10.0);
  EXPECT_EQ(peukert.kernel_counters().pow_misses, 2u);  // two distinct rates
  EXPECT_GE(peukert.kernel_counters().pow_hits, 3u);
}

TEST(Counters, StochasticSlotAttribution) {
  bat::StochasticBattery cell(bat::StochasticParams{});
  const double slot_s = cell.params().slot_s;
  // Slot count of one do_draw, by the kernel's own recurrence.
  auto slots_in = [slot_s](double dt_s) {
    std::uint64_t n = 0;
    for (double remaining = dt_s; remaining > 0.0;
         remaining -= std::min(slot_s, remaining)) {
      ++n;
    }
    return n;
  };
  std::uint64_t want = 0;
  const double dts[] = {0.004, 0.0137, 5.0, 600.0, 0.0137};
  const double currents[] = {0.39, 1.8, 0.05, 1.8, 0.0};
  for (int i = 0; i < 5; ++i) {
    cell.draw(currents[i], dts[i]);
    want += slots_in(dts[i]);
  }
  ASSERT_FALSE(cell.empty());
  EXPECT_EQ(cell.kernel_counters().slots, want);
  // The 600 s at 1.8 A opens a height difference, so recovery moves
  // quanta in some slots — but never in more slots than were stepped.
  EXPECT_GT(cell.kernel_counters().slot_transfers, 0u);
  EXPECT_LE(cell.kernel_counters().slot_transfers,
            cell.kernel_counters().slots);
  cell.reset();
  EXPECT_EQ(cell.kernel_counters().slots, 0u);
  EXPECT_EQ(cell.kernel_counters().slot_transfers, 0u);
}

TEST(Counters, SimulatorRoutesMergedWindowsThroughFastPath) {
  const auto& spec = scenario::scenario("paper-table2");
  util::Rng rng(7);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(7, 1000u));
  config.record_perf_counters = true;
  config.horizon_s = 3600.0;

  bat::DiffusionBattery merged(bat::DiffusionParams::paper_aaa_nimh());
  const auto with_window = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &merged);
  // Merged windows all route through the strength-reduced advance: no
  // per-term sweeps, one exp per advance probe.
  EXPECT_GT(with_window.perf.battery_interval_advances, 0u);
  EXPECT_GE(with_window.perf.kernel.fast_advances,
            with_window.perf.battery_interval_advances);
  EXPECT_EQ(with_window.perf.kernel.exp_sweeps, 0u);
  EXPECT_GT(with_window.perf.kernel.exp_calls, 0u);

  // Window 0 disables merging: every slice takes the exact per-term
  // path (bit-frozen by the window-0 goldens), no fast advances at all.
  config.battery_window_s = 0.0;
  bat::DiffusionBattery exact(bat::DiffusionParams::paper_aaa_nimh());
  const auto no_window = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &exact);
  EXPECT_EQ(no_window.perf.kernel.fast_advances, 0u);
  EXPECT_GT(no_window.perf.kernel.exp_sweeps, 0u);
  EXPECT_GT(no_window.perf.kernel.decay_hits, 0u);
}

}  // namespace
}  // namespace bas
