// Battery model tests: conservation, rate-capacity and recovery effects,
// cross-model coherence (paper §3), and profile bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "battery/diffusion.hpp"
#include "battery/ideal.hpp"
#include "battery/kibam.hpp"
#include "battery/lifetime.hpp"
#include "battery/peukert.hpp"
#include "battery/profile.hpp"
#include "battery/stochastic.hpp"
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

TEST(Units, MahCoulombRoundTrip) {
  EXPECT_DOUBLE_EQ(bat::to_mah(bat::to_coulombs(2000.0)), 2000.0);
  EXPECT_DOUBLE_EQ(bat::to_coulombs(1.0), 3.6);
}

TEST(LoadProfile, AccumulatesAndMerges) {
  bat::LoadProfile p;
  p.add(1.0, 0.5);
  p.add(2.0, 0.5);  // merged with previous
  p.add(1.0, 1.0);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(p.total_charge_c(), 2.5);
  EXPECT_DOUBLE_EQ(p.average_current_a(), 0.625);
}

TEST(LoadProfile, DropsZeroDurationRejectsNegative) {
  bat::LoadProfile p;
  p.add(0.0, 1.0);
  EXPECT_TRUE(p.empty());
  EXPECT_THROW(p.add(-1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(p.add(1.0, -0.1), std::invalid_argument);
}

TEST(LoadProfile, IncreaseCount) {
  bat::LoadProfile down;
  down.add(1.0, 1.0);
  down.add(1.0, 0.5);
  down.add(1.0, 0.2);
  EXPECT_EQ(down.increase_count(), 0u);
  EXPECT_EQ(down.reversed().increase_count(), 2u);
}

TEST(LoadProfile, ConstantFactory) {
  const auto p = bat::LoadProfile::constant(0.7, 10.0);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.total_charge_c(), 7.0);
}

TEST(AllModels, DrawValidation) {
  for (auto& m : all_models()) {
    EXPECT_THROW(m->draw(-1.0, 1.0), std::invalid_argument) << m->name();
    EXPECT_THROW(m->draw(1.0, -1.0), std::invalid_argument) << m->name();
    EXPECT_DOUBLE_EQ(m->draw(1.0, 0.0), 0.0) << m->name();
  }
}

// The entry points' checks must catch NaN, which compares false with
// everything: a NaN current or charge used to empty a KiBaM cell and
// leave the stochastic cell alive with a NaN state of charge. A rejected
// call leaves the cell exactly as it was.
TEST(AllModels, RejectsNanInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto& m : all_models()) {
    EXPECT_THROW(m->draw(nan, 1.0), std::invalid_argument) << m->name();
    EXPECT_THROW(m->draw(1.0, nan), std::invalid_argument) << m->name();
    EXPECT_THROW(m->advance_interval(nan, 5.0), std::invalid_argument)
        << m->name();
    EXPECT_THROW(m->advance_interval(1.0, nan), std::invalid_argument)
        << m->name();
    EXPECT_THROW(m->sigma_after(nan, 1.0), std::invalid_argument)
        << m->name();
    EXPECT_THROW(m->sigma_after(1.0, nan), std::invalid_argument)
        << m->name();
    EXPECT_FALSE(m->empty()) << m->name();
    EXPECT_EQ(m->state_of_charge(), m->fresh_clone()->state_of_charge())
        << m->name();
    EXPECT_EQ(m->charge_delivered_c(), 0.0) << m->name();
    EXPECT_EQ(m->time_alive_s(), 0.0) << m->name();
  }
}

// An infinite time is rejected up front; the stochastic cell would
// otherwise step slots forever under an idle draw.
TEST(AllModels, RejectsInfiniteTime) {
  const double inf = std::numeric_limits<double>::infinity();
  for (auto& m : all_models()) {
    EXPECT_THROW(m->draw(0.0, inf), std::invalid_argument) << m->name();
    EXPECT_THROW(m->draw(1.0, inf), std::invalid_argument) << m->name();
    EXPECT_THROW(m->advance_interval(1.0, inf), std::invalid_argument)
        << m->name();
    EXPECT_THROW(m->sigma_after(1.0, inf), std::invalid_argument)
        << m->name();
    EXPECT_FALSE(m->empty()) << m->name();
    EXPECT_EQ(m->time_alive_s(), 0.0) << m->name();
  }
}

TEST(AllModels, StartFullAndTrackDeliveredCharge) {
  for (auto& m : all_models()) {
    EXPECT_FALSE(m->empty()) << m->name();
    EXPECT_NEAR(m->state_of_charge(), 1.0, 1e-9) << m->name();
    const double sustained = m->draw(1.0, 100.0);
    EXPECT_DOUBLE_EQ(sustained, 100.0) << m->name();
    EXPECT_NEAR(m->charge_delivered_c(), 100.0, 1e-9) << m->name();
    EXPECT_NEAR(m->time_alive_s(), 100.0, 1e-9) << m->name();
  }
}

TEST(AllModels, ResetRestoresFullState) {
  for (auto& m : all_models()) {
    m->draw(1.5, 500.0);
    m->reset();
    EXPECT_FALSE(m->empty()) << m->name();
    EXPECT_NEAR(m->state_of_charge(), 1.0, 1e-9) << m->name();
    EXPECT_DOUBLE_EQ(m->charge_delivered_c(), 0.0) << m->name();
    EXPECT_DOUBLE_EQ(m->time_alive_s(), 0.0) << m->name();
  }
}

TEST(AllModels, FreshCloneIsIndependentAndFull) {
  for (auto& m : all_models()) {
    m->draw(1.5, 500.0);
    const auto clone = m->fresh_clone();
    EXPECT_EQ(clone->name(), m->name());
    EXPECT_NEAR(clone->state_of_charge(), 1.0, 1e-9) << m->name();
    EXPECT_DOUBLE_EQ(clone->charge_delivered_c(), 0.0) << m->name();
  }
}

TEST(AllModels, DeliveredNeverExceedsCapacity) {
  for (auto& m : all_models()) {
    const auto result =
        bat::lifetime_under_profile(*m, bat::LoadProfile::constant(0.5, 1.0));
    EXPECT_TRUE(result.died) << m->name();
    EXPECT_LE(result.delivered_c, kCap * (1.0 + 1e-9)) << m->name();
    EXPECT_GT(result.delivered_c, 0.5 * kCap) << m->name();
  }
}

TEST(AllModels, EmptyBatteryDeliversNothingMore) {
  for (auto& m : all_models()) {
    bat::LoadProfile::constant(5.0, 1.0).discharge_repeating(*m, 1e7);
    ASSERT_TRUE(m->empty()) << m->name();
    EXPECT_DOUBLE_EQ(m->draw(1.0, 10.0), 0.0) << m->name();
  }
}

TEST(AllModels, SigmaAfterPredictsCutoff) {
  // Battery::sigma_after's contract: a probe below 1 means draw sustains
  // the whole interval, at or above 1 that the cell hits cutoff inside
  // it. Checked with a margin on both sides, from fresh and part-drained
  // states, over light to heavy loads and short to long intervals. The
  // stochastic cell is left out: its probe is the KiBaM expectation, not
  // its own realized slot process, so near cutoff the two may disagree.
  const double history_a[] = {1.8, 0.0, 0.98415, 1.8};
  const double history_s[] = {900.0, 300.0, 1200.0, 600.0};
  const double currents[] = {0.0, 0.3888, 0.98415, 1.8, 3.5};
  std::vector<double> intervals;  // 1 s to ~6 h, 39 geometric steps
  for (double t = 1.0; t < 25000.0; t *= 1.3) {
    intervals.push_back(t);
  }
  for (const auto& model : all_models()) {
    if (model->name() == "stochastic") {
      continue;
    }
    int sustained_checked = 0;
    int cut_checked = 0;
    for (int prefix = 0; prefix <= 4; ++prefix) {
      for (double i : currents) {
        for (double t : intervals) {
          const auto cell = model->fresh_clone();
          for (int h = 0; h < prefix; ++h) {
            cell->draw(history_a[h], history_s[h]);
          }
          ASSERT_FALSE(cell->empty()) << model->name();
          const double probe = cell->sigma_after(i, t);
          const double sustained = cell->draw(i, t);
          if (probe <= 0.9) {
            EXPECT_EQ(sustained, t) << model->name() << " probe " << probe;
            EXPECT_FALSE(cell->empty()) << model->name();
            ++sustained_checked;
          } else if (probe >= 1.1) {
            EXPECT_LT(sustained, t) << model->name() << " probe " << probe;
            EXPECT_TRUE(cell->empty()) << model->name();
            ++cut_checked;
          }
        }
      }
    }
    EXPECT_GT(sustained_checked, 0) << model->name();
    EXPECT_GT(cut_checked, 0) << model->name();
  }
}

// --- rate-capacity effect ------------------------------------------------

class RateCapacity : public ::testing::TestWithParam<int> {};

TEST_P(RateCapacity, DeliveredCapacityMonotoneInLoad) {
  auto models = all_models();
  auto& m = models[static_cast<std::size_t>(GetParam())];
  const auto curve =
      bat::rate_capacity_curve(*m, {0.05, 0.2, 0.7, 1.8, 3.5});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].delivered_mah,
              curve[i - 1].delivered_mah + 1e-6)
        << m->name() << " at load " << curve[i].load_a;
    EXPECT_LT(curve[i].lifetime_min, curve[i - 1].lifetime_min)
        << m->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, RateCapacity,
                         ::testing::Range(0, 5));  // index into all_models

TEST(RateCapacityAnchors, MaxCapacityNearRated) {
  // The paper's cell: 2000 mAh maximum capacity under infinitesimal
  // load; all non-ideal models should extrapolate close to it.
  for (auto& m : all_models()) {
    EXPECT_NEAR(bat::max_capacity_mah(*m), 2000.0, 25.0) << m->name();
  }
}

TEST(RateCapacityAnchors, NominalCapacityAtFullLoad) {
  // ~1600 mAh nominal at the simulated full-speed current (~1.8 A):
  // the kinetic family lands in the right decade.
  const bat::KibamBattery kibam(bat::KibamParams::paper_aaa_nimh());
  const auto result = bat::lifetime_under_profile(
      kibam, bat::LoadProfile::constant(1.8, 1.0));
  EXPECT_GT(result.delivered_mah(), 1400.0);
  EXPECT_LT(result.delivered_mah(), 1750.0);
}

// --- recovery effect -----------------------------------------------------

TEST(Recovery, IdleRestoresAvailableCharge) {
  bat::KibamBattery b(bat::KibamParams::paper_aaa_nimh());
  b.draw(2.0, 600.0);
  const double available_after_load = b.available_c();
  b.draw(0.0, 600.0);  // rest
  EXPECT_GT(b.available_c(), available_after_load + 1.0);
}

TEST(Recovery, DiffusionUnavailableChargeDecaysWhenIdle) {
  bat::DiffusionBattery b(bat::DiffusionParams::paper_aaa_nimh());
  b.draw(2.0, 600.0);
  const double unavailable = b.unavailable_c();
  EXPECT_GT(unavailable, 0.0);
  b.draw(0.0, 600.0);
  EXPECT_LT(b.unavailable_c(), 0.5 * unavailable);
}

TEST(Recovery, PulsedLoadOutlastsConstantLoadOfEqualAverage) {
  // 1.0 A constant vs 2.0 A half the time: same average demand, but the
  // rests let the cell recover -> pulsed delivers more than the *peak*
  // constant... and constant-at-average beats pulsed (rate-capacity).
  const bat::KibamBattery proto(bat::KibamParams::paper_aaa_nimh());
  bat::LoadProfile pulsed;
  pulsed.add(10.0, 2.0);
  pulsed.add(10.0, 0.0);
  const auto pulse_life = bat::lifetime_under_profile(proto, pulsed);
  const auto const_peak = bat::lifetime_under_profile(
      proto, bat::LoadProfile::constant(2.0, 1.0));
  const auto const_avg = bat::lifetime_under_profile(
      proto, bat::LoadProfile::constant(1.0, 1.0));
  EXPECT_GT(pulse_life.delivered_c, const_peak.delivered_c);
  EXPECT_GE(const_avg.delivered_c, pulse_life.delivered_c - 1.0);
}

// --- Guideline 1 at model level -------------------------------------------

class ShapeSensitivity : public ::testing::TestWithParam<int> {};

/// Guideline 1 is a statement about one discharge serving a fixed
/// demand: if any order of the segments completes without hitting
/// cutoff, the non-increasing order does, and it leaves the cell in the
/// best state. We run one pass that fits (3600 C of 7200 C), then
/// immediately drain at a high rate — leaving no recovery window, as
/// under a tight deadline — so the state difference shows up as
/// extractable charge. (A slow drain would let recovery erase the
/// history; that near-indifference is itself checked in the bench.)
double total_after_pass_and_drain(bat::Battery& b,
                                  const bat::LoadProfile& pass) {
  pass.discharge_into(b);
  if (!b.empty()) {
    bat::LoadProfile::constant(2.5, 100.0).discharge_repeating(b, 1e7);
  }
  return b.charge_delivered_c();
}

TEST_P(ShapeSensitivity, NonIncreasingBeatsNonDecreasing) {
  // Index 2..4: kibam, diffusion, stochastic (shape-sensitive family).
  auto models = all_models();
  auto& m = models[static_cast<std::size_t>(GetParam())];
  bat::LoadProfile down;
  for (double i : {1.8, 1.2, 0.6}) {
    down.add(1000.0, i);
  }
  const auto fresh_d = m->fresh_clone();
  const auto fresh_u = m->fresh_clone();
  const double d = total_after_pass_and_drain(*fresh_d, down);
  const double u = total_after_pass_and_drain(*fresh_u, down.reversed());
  EXPECT_GT(d, u) << m->name();
}

INSTANTIATE_TEST_SUITE_P(KineticFamily, ShapeSensitivity,
                         ::testing::Values(2, 3, 4));

TEST(ShapeSensitivity, IdealIsIndifferent) {
  bat::IdealBattery a(kCap);
  bat::IdealBattery b(kCap);
  bat::LoadProfile down;
  for (double i : {1.8, 1.2, 0.6}) {
    down.add(1000.0, i);
  }
  const double d = total_after_pass_and_drain(a, down);
  const double u = total_after_pass_and_drain(b, down.reversed());
  EXPECT_NEAR(d, u, 1e-6);
}

TEST(ShapeSensitivity, KibamStateAfterEqualDemandFavorsNonIncreasing) {
  // Direct form of the theorem: after serving identical demand, the
  // non-increasing order leaves more charge in the available well.
  bat::KibamBattery down_cell(bat::KibamParams::paper_aaa_nimh());
  bat::KibamBattery up_cell(bat::KibamParams::paper_aaa_nimh());
  bat::LoadProfile down;
  for (double i : {1.8, 1.2, 0.6}) {
    down.add(1000.0, i);
  }
  down.discharge_into(down_cell);
  down.reversed().discharge_into(up_cell);
  ASSERT_FALSE(down_cell.empty());
  ASSERT_FALSE(up_cell.empty());
  EXPECT_GT(down_cell.available_c(), up_cell.available_c());
}

TEST(ShapeSensitivity, DiffusionApparentChargeFavorsNonIncreasing) {
  // Equivalent statement in the diffusion model: sigma(T) after equal
  // demand is smaller for the non-increasing order.
  bat::DiffusionBattery down_cell(bat::DiffusionParams::paper_aaa_nimh());
  bat::DiffusionBattery up_cell(bat::DiffusionParams::paper_aaa_nimh());
  bat::LoadProfile down;
  for (double i : {1.8, 1.2, 0.6}) {
    down.add(1000.0, i);
  }
  down.discharge_into(down_cell);
  down.reversed().discharge_into(up_cell);
  ASSERT_FALSE(down_cell.empty());
  ASSERT_FALSE(up_cell.empty());
  EXPECT_LT(down_cell.apparent_charge_c(), up_cell.apparent_charge_c());
}

// --- model coherence (paper §3: the models point in the same direction) ---

TEST(Coherence, KibamAndDiffusionRankProfilesIdentically) {
  // The paper's §3 argument: KiBaM is a coarse-grained diffusion model,
  // so the two must agree on which of two equal-demand profiles leaves
  // the battery better off. Compare the pass+drain totals for the
  // non-increasing and non-decreasing arrangements on both models.
  bat::LoadProfile down;
  for (double i : {1.5, 1.0, 0.5}) {
    down.add(1200.0, i);
  }
  const bat::LoadProfile up = down.reversed();

  bat::KibamBattery k1(bat::KibamParams::paper_aaa_nimh());
  bat::KibamBattery k2(bat::KibamParams::paper_aaa_nimh());
  const double k_down = total_after_pass_and_drain(k1, down);
  const double k_up = total_after_pass_and_drain(k2, up);

  bat::DiffusionBattery d1(bat::DiffusionParams::paper_aaa_nimh());
  bat::DiffusionBattery d2(bat::DiffusionParams::paper_aaa_nimh());
  const double d_down = total_after_pass_and_drain(d1, down);
  const double d_up = total_after_pass_and_drain(d2, up);

  EXPECT_GT(k_down, k_up);
  EXPECT_GT(d_down, d_up);
}

// --- KiBaM specifics -------------------------------------------------------

TEST(Kibam, ChargeConservationUnderDraw) {
  bat::KibamBattery b(bat::KibamParams::paper_aaa_nimh());
  const double before = b.available_c() + b.bound_c();
  b.draw(1.0, 100.0);
  const double after = b.available_c() + b.bound_c();
  EXPECT_NEAR(before - after, 100.0, 1e-6);
}

TEST(Kibam, ClosedFormMatchesFineEuler) {
  // Integrate the two-well ODE with tiny explicit-Euler steps and
  // compare against the closed-form stepping.
  bat::KibamParams p = bat::KibamParams::paper_aaa_nimh();
  bat::KibamBattery closed(p);
  closed.draw(1.5, 1000.0);

  const double c = p.c_fraction;
  const double k = p.k_rate;
  double y1 = c * p.capacity_c;
  double y2 = (1.0 - c) * p.capacity_c;
  const double dt = 1e-3;
  for (int i = 0; i < 1000000; ++i) {
    const double flow = k * c * (1.0 - c) * (y2 / (1.0 - c) - y1 / c);
    y1 += (flow - 1.5) * dt;
    y2 -= flow * dt;
  }
  EXPECT_NEAR(closed.available_c(), y1, 0.5);
  EXPECT_NEAR(closed.bound_c(), y2, 0.5);
}

TEST(Kibam, DiesWithTrappedCharge) {
  bat::KibamBattery b(bat::KibamParams::paper_aaa_nimh());
  bat::LoadProfile::constant(3.0, 1.0).discharge_repeating(b, 1e7);
  ASSERT_TRUE(b.empty());
  EXPECT_NEAR(b.available_c(), 0.0, 1e-6);
  EXPECT_GT(b.bound_c(), 0.05 * kCap);  // charge left behind
  EXPECT_GT(b.state_of_charge(), 0.0);
}

TEST(Kibam, RejectsBadParams) {
  bat::KibamParams p;
  p.c_fraction = 1.5;
  EXPECT_THROW(bat::KibamBattery{p}, std::invalid_argument);
  p = bat::KibamParams{};
  p.k_rate = 0.0;
  EXPECT_THROW(bat::KibamBattery{p}, std::invalid_argument);
}

// --- diffusion specifics ---------------------------------------------------

TEST(Diffusion, ApparentChargeExceedsDrawnUnderLoad) {
  bat::DiffusionBattery b(bat::DiffusionParams::paper_aaa_nimh());
  b.draw(1.5, 600.0);
  EXPECT_GT(b.apparent_charge_c(), b.charge_delivered_c());
}

TEST(Diffusion, MoreSeriesTermsIncreaseAccuracyMonotonically) {
  // Truncation error falls with M; delivered capacity converges.
  double prev = -1.0;
  double prev_delta = 1e18;
  for (int terms : {1, 3, 10, 30}) {
    bat::DiffusionParams p = bat::DiffusionParams::paper_aaa_nimh();
    p.series_terms = terms;
    const bat::DiffusionBattery proto(p);
    const double delivered =
        bat::lifetime_under_profile(proto,
                                    bat::LoadProfile::constant(1.8, 1.0))
            .delivered_c;
    if (prev >= 0.0) {
      const double delta = std::abs(delivered - prev);
      EXPECT_LT(delta, prev_delta + 1e-9);
      prev_delta = delta;
    }
    prev = delivered;
  }
}

TEST(Diffusion, RejectsBadParams) {
  bat::DiffusionParams p;
  p.beta_squared = 0.0;
  EXPECT_THROW(bat::DiffusionBattery{p}, std::invalid_argument);
  p = bat::DiffusionParams{};
  p.series_terms = 0;
  EXPECT_THROW(bat::DiffusionBattery{p}, std::invalid_argument);
}

// --- stochastic specifics ----------------------------------------------------

TEST(Stochastic, ExpectationTracksKibam) {
  // The stochastic model's mean behaviour is the kinetic model (see
  // DESIGN.md substitution note): delivered capacity at a fixed load
  // should agree within a couple of percent.
  const bat::KibamBattery kibam(bat::KibamParams::paper_aaa_nimh());
  const double k_del =
      bat::lifetime_under_profile(kibam, bat::LoadProfile::constant(1.8, 1.0))
          .delivered_c;
  bat::StochasticParams sp;
  sp.seed = 77;
  const bat::StochasticBattery stoch(sp);
  const double s_del =
      bat::lifetime_under_profile(stoch, bat::LoadProfile::constant(1.8, 1.0))
          .delivered_c;
  EXPECT_NEAR(s_del / k_del, 1.0, 0.02);
}

TEST(Stochastic, SeedChangesRunButNotRegime) {
  bat::StochasticParams a;
  a.seed = 1;
  bat::StochasticParams b;
  b.seed = 2;
  const double da = bat::lifetime_under_profile(
                        bat::StochasticBattery(a),
                        bat::LoadProfile::constant(1.8, 1.0))
                        .delivered_c;
  const double db = bat::lifetime_under_profile(
                        bat::StochasticBattery(b),
                        bat::LoadProfile::constant(1.8, 1.0))
                        .delivered_c;
  EXPECT_NE(da, db);
  EXPECT_NEAR(da / db, 1.0, 0.05);
}

TEST(Stochastic, RejectsBadParams) {
  bat::StochasticParams p;
  p.slot_s = 0.0;
  EXPECT_THROW(bat::StochasticBattery{p}, std::invalid_argument);
  p = bat::StochasticParams{};
  p.quantum_c = -1.0;
  EXPECT_THROW(bat::StochasticBattery{p}, std::invalid_argument);
}

// --- peukert specifics -------------------------------------------------------

TEST(Peukert, ConstantLoadLifetimeMatchesLaw) {
  bat::PeukertParams p;
  p.capacity_c = 7200.0;
  p.exponent = 1.2;
  p.reference_current_a = 0.2;
  const bat::PeukertBattery proto(p);
  // t = C / (I * (I/Iref)^(p-1)) for I > Iref.
  const double i = 2.0;
  const auto result =
      bat::lifetime_under_profile(proto, bat::LoadProfile::constant(i, 1.0));
  const double expected = 7200.0 / (i * std::pow(i / 0.2, 0.2));
  EXPECT_NEAR(result.lifetime_s, expected, 1e-6);
}

TEST(Peukert, NoRecoveryFromIdle) {
  bat::PeukertBattery b(bat::PeukertParams{});
  b.draw(1.0, 1000.0);
  const double soc = b.state_of_charge();
  b.draw(0.0, 10000.0);
  EXPECT_DOUBLE_EQ(b.state_of_charge(), soc);
}

TEST(Ideal, ExactBucketSemantics) {
  bat::IdealBattery b(100.0);
  EXPECT_DOUBLE_EQ(b.draw(10.0, 5.0), 5.0);
  EXPECT_NEAR(b.state_of_charge(), 0.5, 1e-12);
  // 50 C left at 10 A -> exactly 5 more seconds.
  EXPECT_NEAR(b.draw(10.0, 100.0), 5.0, 1e-12);
  EXPECT_TRUE(b.empty());
  EXPECT_NEAR(b.charge_delivered_c(), 100.0, 1e-9);
}

// --- diffusion series against the per-term reference ------------------------

/// The original per-call diffusion stepping, verbatim: rates recomputed
/// inside every loop, one std::exp per series term. DiffusionBattery
/// evaluates the same sum with strength-reduced decays (one exp, then
/// x^{m²} by recurrence), associated differently, so it tracks this
/// reference within a stated tolerance rather than bitwise.
struct ReferenceDiffusion {
  bat::DiffusionParams p;
  std::vector<double> s_m;
  double drawn_c = 0.0;
  bool dead = false;

  explicit ReferenceDiffusion(bat::DiffusionParams params) : p(params) {
    s_m.assign(static_cast<std::size_t>(p.series_terms), 0.0);
  }

  double sigma_after(double current_a, double t) const {
    double sigma = drawn_c + current_a * t;
    for (int m = 1; m <= p.series_terms; ++m) {
      const double rate = p.beta_squared * m * m;
      const double decay = std::exp(-rate * t);
      const double s_prev = s_m[static_cast<std::size_t>(m - 1)];
      sigma += 2.0 * (s_prev * decay + current_a * (1.0 - decay) / rate);
    }
    return sigma;
  }

  void advance(double current_a, double t) {
    drawn_c += current_a * t;
    for (int m = 1; m <= p.series_terms; ++m) {
      const double rate = p.beta_squared * m * m;
      const double decay = std::exp(-rate * t);
      auto& s = s_m[static_cast<std::size_t>(m - 1)];
      s = s * decay + current_a * (1.0 - decay) / rate;
    }
  }

  double draw(double current_a, double dt_s) {
    if (dt_s == 0.0 || dead) {
      return 0.0;
    }
    if (sigma_after(current_a, dt_s) < p.alpha_c) {
      advance(current_a, dt_s);
      return dt_s;
    }
    double lo = 0.0;
    double hi = dt_s;
    for (int iter = 0; iter < 80; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (sigma_after(current_a, mid) < p.alpha_c) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    advance(current_a, lo);
    dead = true;
    return lo;
  }

  double unavailable_c() const {
    double total = 0.0;
    for (double s : s_m) {
      total += s;
    }
    return 2.0 * total;
  }
};

/// Relative distance, for values that may be 0 on both sides.
double rel_diff(double got, double want) {
  return got == want ? 0.0
                     : std::abs(got - want) /
                           std::max(std::abs(got), std::abs(want));
}

// Tolerances of the strength-reduced series against the per-term sweep:
// sigma and the unavailable charge within 1e-10 relative (the worst
// measured drift is ~1.5e-11, where sigma is tiny), sustained durations
// and the cutoff instant within 1e-12.
constexpr double kSigmaTol = 1e-10;
constexpr double kTimeTol = 1e-12;

void expect_tracks(const bat::DiffusionBattery& cell,
                   const ReferenceDiffusion& ref, double got, double want,
                   int round) {
  ASSERT_LE(rel_diff(got, want), kTimeTol)
      << "sustained diverged at round " << round;
  ASSERT_LE(rel_diff(cell.apparent_charge_c(),
                     ref.drawn_c + ref.unavailable_c()),
            kSigmaTol)
      << "sigma diverged at round " << round;
  ASSERT_LE(rel_diff(cell.unavailable_c(), ref.unavailable_c()), kSigmaTol)
      << "transient state diverged at round " << round;
  ASSERT_EQ(cell.empty(), ref.dead) << "cutoff diverged at round " << round;
}

TEST(Diffusion, SeriesTracksPerTermReference) {
  const auto params = bat::DiffusionParams::paper_aaa_nimh();
  bat::DiffusionBattery cell(params);
  ReferenceDiffusion ref(params);

  // Sweep of (current, dt) pairs shaped like simulator traffic: the
  // paper processor's three operating-point currents plus idle, over
  // durations from sub-millisecond slices to multi-minute stretches.
  const double currents[] = {0.0, 0.01, 0.3888, 1.8, 0.98415, 1.8,
                             1.8,  0.01, 0.3888, 0.0, 1.8,     0.98415};
  const double dts[] = {1e-4, 0.0123, 0.5,  3.75,  60.0,   0.5,
                        0.5,  17.2,   1e-3, 240.0, 0.0077, 33.3};
  int step = 0;
  for (int round = 0; round < 220 && !cell.empty(); ++round) {
    const double i = currents[step % 12];
    const double dt = dts[(step * 7 + round) % 12];
    ++step;
    const double got = cell.draw(i, dt);
    const double want = ref.draw(i, dt);
    ASSERT_NO_FATAL_FAILURE(expect_tracks(cell, ref, got, want, round));
  }

  // Push both through the cutoff bisection with a heavy draw and check
  // the located crossing.
  if (!cell.empty()) {
    const double got = cell.draw(5.0, 1e7);
    const double want = ref.draw(5.0, 1e7);
    ASSERT_NO_FATAL_FAILURE(expect_tracks(cell, ref, got, want, -1));
    ASSERT_TRUE(cell.empty());
  }

  // Merged-window traffic: charge-equivalent interval advances of 2-10 s
  // over the operating points, then death through the same bisection.
  cell.reset();
  ReferenceDiffusion ref2(params);
  const double window_currents[] = {1.8, 0.0, 0.98415, 0.3888};
  for (int round = 0; round < 400; ++round) {
    const double i = window_currents[round % 4];
    const double dt = 2.0 + (round % 9);
    // advance_interval draws charge / dt; hand the reference the same.
    const double charge = i * dt;
    const double got = cell.advance_interval(charge, dt);
    const double want = ref2.draw(charge / dt, dt);
    ASSERT_NO_FATAL_FAILURE(expect_tracks(cell, ref2, got, want, round));
  }
  const double got = cell.advance_interval(5.0 * 1e6, 1e6);
  const double want = ref2.draw(5.0, 1e6);
  ASSERT_NO_FATAL_FAILURE(expect_tracks(cell, ref2, got, want, -2));
  EXPECT_TRUE(cell.empty());
}

// --- stochastic fused slot loop bit-exactness --------------------------------

/// The stochastic kernel as it stood before its slot loop was fused,
/// verbatim: one step_slot call per slot with the wells and generator in
/// members, the recovery draw through Rng::bernoulli, std::floor for the
/// whole quanta, and Battery::draw's accounting on top. The fused loop is
/// contracted to reproduce this to the last bit, including the generator
/// stream position. The reference also counts its slots and the slots
/// that moved at least one whole quantum, the kernel's `slots` and
/// `slot_transfers` counters.
struct ReferenceStochastic {
  bat::StochasticParams params_;
  util::Rng rng_;
  double flow_coeff_;
  double one_minus_c_;
  double y1_;
  double y2_;
  bool dead_ = false;
  double delivered_c = 0.0;
  double alive_s = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t slot_transfers = 0;

  explicit ReferenceStochastic(bat::StochasticParams params)
      : params_(params), rng_(params.seed) {
    const double c = params_.kinetics.c_fraction;
    one_minus_c_ = 1.0 - c;
    flow_coeff_ = params_.kinetics.k_rate * c * (1.0 - c);
    y1_ = c * params_.kinetics.capacity_c;
    y2_ = (1.0 - c) * params_.kinetics.capacity_c;
  }

  double step_slot(double current_a, double dt) {
    ++slots;
    const double c = params_.kinetics.c_fraction;
    const double h1 = y1_ / c;
    const double h2 = y2_ / one_minus_c_;
    const double expected_transfer_c = flow_coeff_ * (h2 - h1) * dt;
    double transfer_c = 0.0;
    if (expected_transfer_c > 0.0) {
      const double quanta = expected_transfer_c / params_.quantum_c;
      double whole = std::floor(quanta);
      if (rng_.bernoulli(quanta - whole)) {
        whole += 1.0;
      }
      slot_transfers += whole >= 1.0 ? 1 : 0;
      transfer_c = std::min(whole * params_.quantum_c, y2_);
    } else if (expected_transfer_c < 0.0) {
      const double quanta = -expected_transfer_c / params_.quantum_c;
      double whole = std::floor(quanta);
      if (rng_.bernoulli(quanta - whole)) {
        whole += 1.0;
      }
      slot_transfers += whole >= 1.0 ? 1 : 0;
      transfer_c = -std::min(whole * params_.quantum_c, y1_);
    }

    const double demand_c = current_a * dt;
    if (y1_ + transfer_c <= demand_c) {
      const double sustained =
          current_a > 0.0 ? (y1_ + transfer_c) / current_a : dt;
      y2_ -= std::max(0.0, transfer_c);
      y1_ = 0.0;
      dead_ = true;
      return std::min(sustained, dt);
    }
    y1_ += transfer_c - demand_c;
    y2_ -= transfer_c;
    y2_ = std::max(0.0, y2_);
    return dt;
  }

  double do_draw(double current_a, double dt_s) {
    double sustained = 0.0;
    double remaining = dt_s;
    while (remaining > 0.0 && !dead_) {
      const double dt = std::min(params_.slot_s, remaining);
      sustained += step_slot(current_a, dt);
      remaining -= dt;
    }
    return sustained;
  }

  double draw(double current_a, double dt_s) {
    if (dt_s == 0.0 || dead_) {
      return 0.0;
    }
    const double sustained = do_draw(current_a, dt_s);
    delivered_c += current_a * sustained;
    alive_s += sustained;
    return sustained;
  }
};

TEST(Stochastic, FusedSlotLoopMatchesReferenceBitwise) {
  // Three parameter sets: the default cell (< 1 expected quantum per
  // slot, so transfers only come from Bernoulli successes); a fine
  // quantum (many whole quanta per slot, the truncated-floor path); and
  // a c_fraction whose full-charge height difference rounds negative,
  // which runs the reverse-transfer branch from the first slot.
  std::vector<bat::StochasticParams> variants(3);
  variants[1].quantum_c = 1e-4;
  variants[1].seed = 11;
  variants[2].kinetics.c_fraction = 0.7;
  variants[2].seed = 23;
  {
    const auto& k = variants[2].kinetics;
    const double y1 = k.c_fraction * k.capacity_c;
    const double y2 = (1.0 - k.c_fraction) * k.capacity_c;
    ASSERT_LT(y2 / (1.0 - k.c_fraction) - y1 / k.c_fraction, 0.0)
        << "precondition: the full cell must start with h2 < h1";
  }

  // Below one slot, not a multiple of slot_s, many slots, an hour. The
  // 16 (current, dt) pairs run in order of growing dt, so the cell dies
  // inside a slot during the final 1.8 A x 3600 s draw and the repeats
  // that follow check the empty-cell path.
  const double currents[] = {0.0, 0.05, 0.39, 1.8};
  const double dts[] = {0.004, 0.0137, 5.0, 3600.0};

  auto expect_same = [](const bat::StochasticBattery& got,
                        const ReferenceStochastic& want, double got_s,
                        double want_s, int v, int round) {
    EXPECT_EQ(got_s, want_s) << "variant " << v << " round " << round;
    EXPECT_EQ(got.available_c(), want.y1_)
        << "variant " << v << " round " << round;
    EXPECT_EQ(got.bound_c(), want.y2_) << "variant " << v << " round " << round;
    EXPECT_EQ(got.charge_delivered_c(), want.delivered_c)
        << "variant " << v << " round " << round;
    EXPECT_EQ(got.time_alive_s(), want.alive_s)
        << "variant " << v << " round " << round;
    EXPECT_EQ(got.empty(), want.dead_) << "variant " << v << " round " << round;
    EXPECT_EQ(got.kernel_counters().slots, want.slots)
        << "variant " << v << " round " << round;
    EXPECT_EQ(got.kernel_counters().slot_transfers, want.slot_transfers)
        << "variant " << v << " round " << round;
  };

  for (int v = 0; v < static_cast<int>(variants.size()); ++v) {
    bat::StochasticBattery cell(variants[static_cast<std::size_t>(v)]);
    ReferenceStochastic ref(variants[static_cast<std::size_t>(v)]);
    for (int round = 0; round < 20; ++round) {
      const double i = currents[round % 4];
      const double dt = dts[(round / 4) % 4];
      const double got = cell.draw(i, dt);
      const double want = ref.draw(i, dt);
      expect_same(cell, ref, got, want, v, round);
    }
    EXPECT_TRUE(cell.empty()) << "variant " << v;

    // A current no cell sustains for one slot: dies inside the first
    // slot after a few partial-slot draws of ordinary size.
    bat::StochasticBattery killed(variants[static_cast<std::size_t>(v)]);
    ReferenceStochastic ref_killed(variants[static_cast<std::size_t>(v)]);
    const double kill_currents[] = {0.39, 0.0, 1.8, 1.0e6, 0.05};
    for (int round = 0; round < 5; ++round) {
      const double dt = round == 3 ? 5.0 : 0.0137;
      const double got = killed.draw(kill_currents[round], dt);
      const double want = ref_killed.draw(kill_currents[round], dt);
      expect_same(killed, ref_killed, got, want, v, 100 + round);
    }
    EXPECT_TRUE(killed.empty()) << "variant " << v;
    EXPECT_GT(killed.time_alive_s(), 0.0);
  }
}

TEST(Stochastic, QuietSlotBlocksMatchReferenceFuzzed) {
  // Seeded random cells against the per-slot reference. The parameter
  // ranges reach both sides of every block condition: quanta from far
  // below one per slot (long quiet runs) to thousands (no block, the
  // whole-quanta path); c_fraction on both sides of the full-cell
  // height balance (reverse transfer); small capacities, so cells die
  // in the draw a block ends near cutoff; zero currents (no demand, y1
  // flat); and spans that end on a slot boundary, one ulp short of one,
  // inside the first slot or many slots later.
  constexpr int kCells = 1200;
  constexpr int kRounds = 12;
  util::Rng gen(0xb10c5ULL);
  auto log_uniform = [&gen](double lo, double hi) {
    return lo * std::pow(hi / lo, gen.uniform());
  };
  int died = 0;
  int transfer_heavy = 0;  // more than half the slots moved charge
  int quiet_heavy = 0;     // under 5% of the slots moved charge
  std::uint64_t total_slots = 0;
  for (int cell = 0; cell < kCells; ++cell) {
    bat::StochasticParams p;
    p.quantum_c = log_uniform(1e-4, 3.0);
    p.kinetics.c_fraction = gen.uniform(0.05, 0.95);
    p.kinetics.k_rate *= log_uniform(0.1, 100.0);
    p.kinetics.capacity_c = log_uniform(0.5, 200.0);
    p.slot_s = gen.uniform(0.001, 0.05);
    p.seed = gen.next_u64();
    bat::StochasticBattery got(p);
    ReferenceStochastic want(p);
    for (int round = 0; round < kRounds && !got.empty(); ++round) {
      const double current =
          gen.uniform() < 0.25 ? 0.0 : log_uniform(1e-3, 3.0);
      const double whole_slots = p.slot_s * gen.uniform_int(1, 400);
      double dt = 0.0;
      switch (gen.uniform_int(0, 3)) {
        case 0:
          dt = whole_slots;
          break;
        case 1:
          dt = std::nextafter(whole_slots, 0.0);
          break;
        case 2:
          dt = gen.uniform(0.0, p.slot_s);
          break;
        default:
          dt = gen.uniform(1.0, 20.0);
          break;
      }
      const double got_s = got.draw(current, dt);
      const double want_s = want.draw(current, dt);
      ASSERT_EQ(got_s, want_s) << "cell " << cell << " round " << round;
      ASSERT_EQ(got.available_c(), want.y1_)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.bound_c(), want.y2_)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.empty(), want.dead_)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.charge_delivered_c(), want.delivered_c)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.time_alive_s(), want.alive_s)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.kernel_counters().slots, want.slots)
          << "cell " << cell << " round " << round;
      ASSERT_EQ(got.kernel_counters().slot_transfers, want.slot_transfers)
          << "cell " << cell << " round " << round;
    }
    // Same stream position: the next draw of a surviving cell agrees.
    if (!got.empty()) {
      ASSERT_EQ(got.draw(0.5, 0.25), want.draw(0.5, 0.25)) << "cell " << cell;
      ASSERT_EQ(got.available_c(), want.y1_) << "cell " << cell;
    }
    died += got.empty() ? 1 : 0;
    const std::uint64_t slots = want.slots;
    transfer_heavy += 2 * want.slot_transfers > slots ? 1 : 0;
    quiet_heavy += 20 * want.slot_transfers < slots ? 1 : 0;
    total_slots += slots;
  }
  // The draw mix must reach the regimes the ranges were chosen for.
  EXPECT_GT(died, kCells / 10);
  EXPECT_GT(transfer_heavy, kCells / 100);
  EXPECT_GT(quiet_heavy, kCells / 10);
  EXPECT_GT(total_slots, 1000000u);
}

}  // namespace
}  // namespace bas
