// Battery kernel interval-advance and instrumentation suite: the
// merged-window interval advance (bitwise equal to a draw for every
// model) and the per-kernel work counters, both on bare cells and as
// routed by the simulator.

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

TEST(IntervalAdvance, IsBitwiseDrawOnAllModels) {
  // No kernel overrides do_advance_interval, so a merged-window advance
  // must equal the equivalent draw to the last bit on all five cells.
  auto draws = all_models();
  auto advances = all_models();
  for (std::size_t m = 0; m < draws.size(); ++m) {
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
    // Through the cutoff: the bisection and the committed crossing.
    const double got = advances[m]->advance_interval(5.0 * 1e6, 1e6);
    const double want = draws[m]->draw(5.0, 1e6);
    ASSERT_EQ(got, want) << draws[m]->name() << " cutoff";
    ASSERT_TRUE(advances[m]->empty()) << draws[m]->name();
    ASSERT_EQ(advances[m]->state_of_charge(), draws[m]->state_of_charge())
        << draws[m]->name() << " cutoff";
  }
}

TEST(Counters, DiffusionOneExpPerProbe) {
  bat::DiffusionBattery cell(bat::DiffusionParams::paper_aaa_nimh());
  // The strength-reduced series takes one exp per probe, whatever the
  // term count: a surviving draw or interval advance is one probe, and
  // so is a sigma_after.
  for (int i = 0; i < 3; ++i) {
    cell.draw(1.8, 0.5);
  }
  EXPECT_EQ(cell.kernel_counters().exp_calls, 3u);
  cell.advance_interval(1.8 * 4.0, 4.0);
  EXPECT_EQ(cell.kernel_counters().exp_calls, 4u);
  (void)cell.sigma_after(0.3888, 60.0);
  EXPECT_EQ(cell.kernel_counters().exp_calls, 5u);
  // A draw through the cutoff: the first probe, 80 bisection probes
  // and the refill at the committed crossing.
  cell.draw(5.0, 1e6);
  ASSERT_TRUE(cell.empty());
  EXPECT_EQ(cell.kernel_counters().exp_calls, 5u + 82u);
  cell.reset();
  EXPECT_EQ(cell.kernel_counters().exp_calls, 0u);
}

TEST(Counters, KibamOneExpPerClosedFormStep) {
  // Every KiBaM closed-form step, draw, bisection or probe, evaluates
  // both wells from one shared e^{-kt}.
  bat::KibamBattery kibam(bat::KibamParams::paper_aaa_nimh());
  kibam.draw(0.9, 10.0);
  kibam.draw(0.0, 5.0);
  EXPECT_EQ(kibam.kernel_counters().exp_calls, 2u);
  (void)kibam.sigma_after(1.8, 60.0);
  EXPECT_EQ(kibam.kernel_counters().exp_calls, 3u);
  kibam.draw(5.0, 1e6);
  ASSERT_TRUE(kibam.empty());
  EXPECT_EQ(kibam.kernel_counters().exp_calls, 3u + 82u);

  // The stochastic cell's probe is the same closed form; its slots
  // take no exp.
  bat::StochasticBattery stochastic(bat::StochasticParams{});
  stochastic.draw(1.8, 60.0);
  EXPECT_EQ(stochastic.kernel_counters().exp_calls, 0u);
  (void)stochastic.sigma_after(1.8, 60.0);
  EXPECT_EQ(stochastic.kernel_counters().exp_calls, 1u);
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

TEST(Counters, SimulatorCountsOneExpPerDiffusionAdvance) {
  const auto& spec = scenario::scenario("paper-table2");
  util::Rng rng(7);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(7, 1000u));
  config.record_perf_counters = true;
  config.horizon_s = 3600.0;

  // Merged windows and per-slice draws evaluate the same series, one
  // exp per kernel call while the cell survives.
  bat::DiffusionBattery merged(bat::DiffusionParams::paper_aaa_nimh());
  const auto with_window = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &merged);
  ASSERT_FALSE(with_window.battery_died);
  EXPECT_GT(with_window.perf.battery_interval_advances, 0u);
  EXPECT_EQ(with_window.perf.kernel.exp_calls,
            with_window.perf.battery_draws);

  config.battery_window_s = 0.0;
  bat::DiffusionBattery per_slice(bat::DiffusionParams::paper_aaa_nimh());
  const auto no_window = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &per_slice);
  ASSERT_FALSE(no_window.battery_died);
  EXPECT_EQ(no_window.perf.battery_interval_advances, 0u);
  EXPECT_GT(no_window.perf.battery_draws,
            with_window.perf.battery_draws);
  EXPECT_EQ(no_window.perf.kernel.exp_calls, no_window.perf.battery_draws);
}

}  // namespace
}  // namespace bas
