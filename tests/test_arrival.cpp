// Arrival-process tests: registry round-trips, per-model release-time
// laws (bounds, separations, empirical rates for the Poisson/IPPP
// models), trace replay, fingerprints — and the integration contracts:
// `periodic` is bit-identical to the pre-subsystem simulator (golden
// metrics captured at the pre-refactor HEAD), arrival-model sweeps on
// the engine are thread-count-invariant, and the empirical release
// rate read back off a Chrome-trace log matches the configured
// Poisson/IPPP rate (the trace-based diagnostic).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "arrival/arrival.hpp"
#include "exp/factories.hpp"
#include "obs/trace_log.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "tgff/workload.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Draws releases until `horizon` (or `max_count`) and returns them.
std::vector<double> draw_releases(arrival::ArrivalProcess& process,
                                  util::Rng& rng, double horizon,
                                  std::size_t max_count = 1000000) {
  std::vector<double> times;
  double prev = -1.0;
  while (times.size() < max_count) {
    const double next = process.next_release(prev, rng);
    if (next >= horizon) {
      break;
    }
    times.push_back(next);
    prev = next;
  }
  return times;
}

// ------------------------------------------------------------ registry

TEST(Arrival, RegistryListsEveryModelAndMakesThem) {
  const auto& names = arrival::labels();
  ASSERT_EQ(names.size(), 6u);
  for (const auto& name : names) {
    arrival::Spec spec;
    spec.model = name;
    if (name == "trace-replay") {
      spec.params.trace = "0;1;2";
    }
    const auto process = arrival::make(spec, 1.0);
    ASSERT_NE(process, nullptr) << name;
    EXPECT_EQ(process->label(), name);
  }
}

TEST(Arrival, UnknownModelAndBadParamsThrow) {
  arrival::Spec spec;
  spec.model = "uniform";  // not a thing
  EXPECT_THROW(arrival::make(spec, 1.0), std::invalid_argument);
  EXPECT_THROW(arrival::fingerprint(spec), std::invalid_argument);

  spec = arrival::Spec{};
  EXPECT_THROW(arrival::make(spec, 0.0), std::invalid_argument);

  spec = arrival::Spec{{"periodic-jitter"}, {}};
  spec.params.jitter_frac = 1.0;  // would break monotonicity
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);

  spec = arrival::Spec{{"sporadic"}, {}};
  spec.params.gap_frac = -0.1;
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);

  spec = arrival::Spec{{"poisson"}, {}};
  spec.params.rate_scale = 0.0;
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);

  spec = arrival::Spec{{"ippp"}, {}};
  spec.params.diurnal_amp = 1.5;
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);

  spec = arrival::Spec{{"ippp"}, {}};
  spec.params.burst_period_s = 10.0;
  spec.params.burst_duty = 0.0;
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);

  spec = arrival::Spec{{"trace-replay"}, {}};  // no trace given
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);
  spec.params.trace = "1;banana;3";
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);
  spec.params.trace = "@/nonexistent/bas-arrival-trace.csv";
  EXPECT_THROW(arrival::validate(spec), std::invalid_argument);
}

TEST(Arrival, FingerprintCoversOnlyTheModelsOwnKnobs) {
  arrival::Spec poisson{{"poisson"}, {}};
  const auto base = arrival::fingerprint(poisson);
  EXPECT_NE(base.find("arrival=poisson"), std::string::npos);

  // An unrelated knob must not perturb the fingerprint (campaign caches
  // would invalidate spuriously)...
  auto tweaked = poisson;
  tweaked.params.jitter_frac = 0.9;
  EXPECT_EQ(arrival::fingerprint(tweaked), base);
  // ...but the model's own knob must.
  tweaked = poisson;
  tweaked.params.rate_scale = 2.0;
  EXPECT_NE(arrival::fingerprint(tweaked), base);

  arrival::Spec periodic{{"periodic"}, {}};
  EXPECT_EQ(arrival::fingerprint(periodic), "arrival=periodic");

  // ippp's gated knobs enter only while their gate is live: with the
  // burst envelope off (burst_period_s == 0) the rate function never
  // reads burst_factor, so changing it must not fork the cache key —
  // and symmetrically for diurnal_period under diurnal_amp == 0.
  arrival::Spec ippp{{"ippp"}, {}};
  const auto ippp_base = arrival::fingerprint(ippp);
  auto inert = ippp;
  inert.params.burst_factor = 7.0;
  inert.params.diurnal_period_s = 123.0;
  EXPECT_EQ(arrival::fingerprint(inert), ippp_base);
  auto live = ippp;
  live.params.burst_period_s = 100.0;
  const auto live_base = arrival::fingerprint(live);
  EXPECT_NE(live_base, ippp_base);
  live.params.burst_factor = 7.0;
  EXPECT_NE(arrival::fingerprint(live), live_base);
}

// ----------------------------------------------------- per-model laws

TEST(Arrival, PeriodicReleasesAreExactMultiplesOfThePeriod) {
  // Bit-for-bit the pre-subsystem schedule: release k is the double
  // `k * period`, not an accumulated sum (0.3 + 0.3 + 0.3 != 3 * 0.3).
  const double period = 0.3;
  arrival::Spec spec;  // periodic
  const auto process = arrival::make(spec, period);
  util::Rng rng(1);
  double prev = -1.0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double t = process->next_release(prev, rng);
    EXPECT_EQ(t, static_cast<double>(k) * period);  // exact, not NEAR
    prev = t;
  }
}

TEST(Arrival, PeriodicJitterStaysInTheJitterWindowAndMonotone) {
  const double period = 2.0;
  arrival::Spec spec{{"periodic-jitter"}, {}};
  spec.params.jitter_frac = 0.4;
  const auto process = arrival::make(spec, period);
  util::Rng rng(7);
  double prev = -1.0;
  bool saw_jitter = false;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const double t = process->next_release(prev, rng);
    const double nominal = static_cast<double>(k) * period;
    EXPECT_GE(t, nominal);
    EXPECT_LT(t, nominal + 0.4 * period);
    EXPECT_GT(t, prev);  // jitter_frac < 1 keeps releases ordered
    saw_jitter = saw_jitter || t != nominal;
    prev = t;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(Arrival, SporadicEnforcesTheMinimumSeparation) {
  const double period = 1.5;
  arrival::Spec spec{{"sporadic"}, {}};
  spec.params.gap_frac = 0.5;
  const auto process = arrival::make(spec, period);
  util::Rng rng(11);
  const auto times = draw_releases(*process, rng, 1e9, 5000);
  ASSERT_EQ(times.size(), 5000u);
  EXPECT_EQ(times.front(), 0.0);
  double mean_gap = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    EXPECT_GE(gap, period);  // hard minimum separation
    mean_gap += gap;
  }
  mean_gap /= static_cast<double>(times.size() - 1);
  // E[gap] = period * (1 + gap_frac) = 2.25 s.
  EXPECT_NEAR(mean_gap, period * 1.5, 0.05 * period * 1.5);
}

TEST(Arrival, PoissonHitsItsMeanRate) {
  const double period = 1.0;
  const double horizon = 4000.0;
  arrival::Spec spec{{"poisson"}, {}};
  spec.params.rate_scale = 1.0;
  const auto process = arrival::make(spec, period);
  util::Rng rng(13);
  const auto times = draw_releases(*process, rng, horizon);
  // Expected count = horizon / period = 4000, sigma = 63; 5% tolerance
  // is > 3 sigma and the seed is fixed, so this cannot flake.
  EXPECT_NEAR(static_cast<double>(times.size()), 4000.0, 200.0);

  // rate_scale scales the rate.
  spec.params.rate_scale = 2.0;
  const auto doubled = arrival::make(spec, period);
  util::Rng rng2(13);
  const auto times2 = draw_releases(*doubled, rng2, horizon);
  EXPECT_NEAR(static_cast<double>(times2.size()), 8000.0, 400.0);
}

TEST(Arrival, IpppHitsTheMeanRateOfItsRateFunction) {
  // Diurnal term integrates to zero over whole cycles; the on/off burst
  // envelope multiplies the mean by 1 + duty * (factor - 1).
  const double period = 1.0;
  const double horizon = 6000.0;  // whole number of 600 s diurnal cycles
  arrival::Spec spec{{"ippp"}, {}};
  spec.params.rate_scale = 1.0;
  spec.params.diurnal_amp = 0.5;
  spec.params.diurnal_period_s = 600.0;
  spec.params.burst_factor = 3.0;
  spec.params.burst_period_s = 100.0;
  spec.params.burst_duty = 0.2;
  const auto process = arrival::make(spec, period);
  util::Rng rng(17);
  const auto times = draw_releases(*process, rng, horizon);
  const double expected = horizon / period * (1.0 + 0.2 * (3.0 - 1.0));
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.06 * expected);
}

TEST(Arrival, IpppConcentratesReleasesInsideBurstWindows) {
  arrival::Spec spec{{"ippp"}, {}};
  spec.params.burst_factor = 4.0;
  spec.params.burst_period_s = 100.0;
  spec.params.burst_duty = 0.25;  // rate is 4x in [0, 25) of every 100 s
  const auto process = arrival::make(spec, 1.0);
  util::Rng rng(19);
  const auto times = draw_releases(*process, rng, 20000.0);
  std::size_t in_burst = 0;
  for (const double t : times) {
    in_burst += std::fmod(t, 100.0) < 25.0 ? 1 : 0;
  }
  // Burst windows hold 25% of the time but 4x the rate: expected share
  // = 4 * 0.25 / (4 * 0.25 + 0.75) = 57%. Far from the 25% a
  // homogeneous process would give.
  const double share =
      static_cast<double>(in_burst) / static_cast<double>(times.size());
  EXPECT_GT(share, 0.5);
  EXPECT_LT(share, 0.65);
}

TEST(Arrival, TraceReplayReplaysWrapsAndStops) {
  arrival::Spec spec{{"trace-replay"}, {}};
  spec.params.trace = "0;0.5;0.8";
  spec.params.trace_repeat = true;
  const auto process = arrival::make(spec, 1.0);  // wrap cycle = 0.8 + 1
  util::Rng rng(23);
  double prev = -1.0;
  const double expected[] = {0.0, 0.5, 0.8, 1.8, 2.3, 2.6, 3.6, 4.1, 4.4};
  for (const double want : expected) {
    const double t = process->next_release(prev, rng);
    EXPECT_DOUBLE_EQ(t, want);
    prev = t;
  }

  spec.params.trace_repeat = false;
  const auto once = arrival::make(spec, 1.0);
  prev = -1.0;
  for (const double want : {0.0, 0.5, 0.8}) {
    prev = once->next_release(prev, rng);
    EXPECT_DOUBLE_EQ(prev, want);
  }
  EXPECT_EQ(once->next_release(prev, rng), kInf);

  // Tied timestamps (routine in measured logs) collapse to one
  // release: a duplicate would instantly supersede its twin instance
  // and log a spurious deadline miss.
  spec.params.trace = "0;0.5;0.5;1";
  const auto deduped = arrival::make(spec, 1.0);
  prev = -1.0;
  for (const double want : {0.0, 0.5, 1.0}) {
    prev = deduped->next_release(prev, rng);
    EXPECT_DOUBLE_EQ(prev, want);
  }
  EXPECT_EQ(deduped->next_release(prev, rng), kInf);
}

TEST(Arrival, TraceReplayLoadsCsvFilesAndFingerprintsTheirContents) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bas-arrival-trace-" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream file(path);
    file << "# release times (s)\n0, 0.25\n1.5\n0.75; 2.0\n";
  }
  arrival::Spec spec{{"trace-replay"}, {}};
  spec.params.trace = "@" + path;
  spec.params.trace_repeat = false;
  const auto process = arrival::make(spec, 1.0);
  util::Rng rng(29);
  double prev = -1.0;
  for (const double want : {0.0, 0.25, 0.75, 1.5, 2.0}) {  // sorted
    prev = process->next_release(prev, rng);
    EXPECT_DOUBLE_EQ(prev, want);
  }
  const auto file_fp = arrival::fingerprint(spec);
  arrival::Spec inline_spec = spec;
  inline_spec.params.trace = "0;0.25;0.75;1.5;2.0";
  // Same parsed times -> same fingerprint, file or inline.
  EXPECT_EQ(arrival::fingerprint(inline_spec), file_fp);
  inline_spec.params.trace = "0;0.25;0.75;1.5;2.5";
  EXPECT_NE(arrival::fingerprint(inline_spec), file_fp);
  std::filesystem::remove(path);
}

// ------------------------------------------------- simulator contract

TEST(ArrivalSim, PeriodicIsBitIdenticalToThePreSubsystemSimulator) {
  // Golden metrics captured at the pre-refactor HEAD (rigid k * period
  // clock) for paper_workload(3, Rng(77)), horizon 20 s, drain, seed
  // 42. The default SimConfig must reproduce every double exactly —
  // the arrival subsystem's periodic path owes bit-identity.
  struct Golden {
    core::SchemeKind kind;
    double end, energy, charge, busy;
    std::uint64_t rel, comp, nodes, pre, finc;
    std::size_t miss;
  };
  const Golden golden[] = {
      {core::SchemeKind::kEdfNoDvs, 20.009722807590105, 16.774916313459375,
       15.646136426168624, 8.629072177705428, 248, 248, 2970, 76, 0, 0},
      {core::SchemeKind::kCcEdfRandom, 20.179791767625588,
       6.5918645712925086, 6.1395664678533048, 16.58097565752848, 248, 248,
       2970, 170, 1911, 0},
      {core::SchemeKind::kLaEdfRandom, 20.098345500567206,
       6.1476171843137299, 5.7215134034301585, 17.170818519932958, 248, 248,
       2970, 181, 1, 0},
      {core::SchemeKind::kBas1, 20.095896555070091, 6.1506640643434132,
       5.7243345886428258, 17.168369574435847, 248, 248, 2970, 181, 1, 0},
      {core::SchemeKind::kBas2, 20.098741777512664, 6.1471241523892637,
       5.7210568923889822, 17.171214796878417, 248, 248, 2970, 181, 1, 0},
  };

  util::Rng rng(77);
  const auto set = tgff::paper_workload(3, rng);
  const auto proc = dvs::Processor::paper_default();
  for (const auto& g : golden) {
    sim::SimConfig config;
    config.horizon_s = 20.0;
    config.drain = true;
    config.seed = 42;
    const auto r = sim::simulate_scheme(set, proc, g.kind, config);
    const auto label = core::to_string(g.kind);
    EXPECT_EQ(r.end_time_s, g.end) << label;
    EXPECT_EQ(r.energy_j, g.energy) << label;
    EXPECT_EQ(r.charge_c, g.charge) << label;
    EXPECT_EQ(r.busy_s, g.busy) << label;
    EXPECT_EQ(r.instances_released, g.rel) << label;
    EXPECT_EQ(r.instances_completed, g.comp) << label;
    EXPECT_EQ(r.nodes_executed, g.nodes) << label;
    EXPECT_EQ(r.preemptions, g.pre) << label;
    EXPECT_EQ(r.frequency_increases, g.finc) << label;
    EXPECT_EQ(r.deadline_misses, g.miss) << label;
  }
}

TEST(ArrivalSim, DeadlinesAreReleaseRelativeUnderJitter) {
  // One heavy single-node graph under jittered releases: every trace
  // slice must stay inside [release, release + period] of its own
  // (shifted) instance window, which only holds when deadlines follow
  // the actual release.
  tg::TaskGraphSet set;
  tg::TaskGraph g(1.0, "solo");
  g.add_node(3e8);
  set.add(std::move(g));
  const auto proc = dvs::Processor::paper_default();

  sim::SimConfig config;
  config.horizon_s = 50.0;
  config.drain = true;
  config.seed = 5;
  config.record_trace = true;
  config.arrival.model = "periodic-jitter";
  config.arrival.params.jitter_frac = 0.5;
  const auto r =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_GT(r.instances_released, 40u);
  ASSERT_FALSE(r.trace.empty());

  // Reconstruct release times from the per-instance first slices; the
  // jitter must actually move them off the k * period grid.
  bool saw_offset = false;
  double window_start = -1.0;
  std::uint32_t current = std::numeric_limits<std::uint32_t>::max();
  for (const auto& slice : r.trace) {
    if (slice.instance != current) {
      current = slice.instance;
      window_start = static_cast<double>(slice.instance) * 1.0;
      const double offset = slice.start_s - window_start;
      EXPECT_GE(offset, -1e-9);
      saw_offset = saw_offset || offset > 1e-6;
    }
    EXPECT_LE(slice.end_s,
              window_start + 1.0 + 0.5 + 1e-6);  // release + deadline bound
  }
  EXPECT_TRUE(saw_offset);
  // The auditor judges each slice against its instance's real window,
  // so a miss-free jittered run audits clean.
  const auto audit = sim::audit_trace(r.trace, set, proc, true);
  EXPECT_TRUE(audit.ok) << audit.summary();
}

TEST(ArrivalSim, ArrivalsAreSeedStableAndSchemeIndependent) {
  // Common random numbers: the release schedule depends only on the
  // config seed, never on the scheme — equal released counts across
  // schemes for stochastic arrivals.
  util::Rng rng(31);
  const auto set = tgff::paper_workload(2, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 30.0;
  config.drain = true;
  config.seed = 99;
  config.arrival.model = "poisson";
  const auto a =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, config);
  const auto b =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  EXPECT_GT(a.instances_released, 0u);
  EXPECT_EQ(a.instances_released, b.instances_released);

  const auto a2 =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, config);
  EXPECT_DOUBLE_EQ(a.busy_s, a2.busy_s);
  EXPECT_DOUBLE_EQ(a.end_time_s, a2.end_time_s);

  config.seed = 100;
  const auto c =
      sim::simulate_scheme(set, proc, core::SchemeKind::kEdfNoDvs, config);
  EXPECT_NE(a.instances_released, c.instances_released);
}

TEST(ArrivalSim, SporadicReleasesFewerInstancesThanPeriodic) {
  util::Rng rng(37);
  const auto set = tgff::paper_workload(2, rng);
  const auto proc = dvs::Processor::paper_default();
  sim::SimConfig config;
  config.horizon_s = 60.0;
  config.drain = true;
  config.seed = 3;
  const auto periodic =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  config.arrival.model = "sporadic";
  config.arrival.params.gap_frac = 1.0;
  const auto sporadic =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  // Mean inter-arrival doubles -> roughly half the instances.
  EXPECT_LT(sporadic.instances_released,
            periodic.instances_released * 3 / 4);
  EXPECT_EQ(sporadic.instances_released, sporadic.instances_completed);
}

// ------------------------------------------- trace-based diagnostics

TEST(ArrivalSim, TraceReleaseRateMatchesTheConfiguredPoissonRate) {
  // Observability as a measurement instrument: attach a TraceLog, run a
  // Poisson workload, and read the empirical release rate back off the
  // "release" instants — it must agree with the configured rate. This
  // cross-checks the engine's release loop against the process law the
  // draw_releases() tests pin in isolation.
  tg::TaskGraphSet set;
  tg::TaskGraph g(1.0, "solo");  // period 1 s -> nominal rate 1 Hz
  g.add_node(1e6);               // light node: the sim keeps up
  set.add(std::move(g));
  const auto proc = dvs::Processor::paper_default();

  const double horizon = 4000.0;
  obs::TraceLog log;
  sim::SimConfig config;
  config.horizon_s = horizon;
  config.seed = 13;
  config.arrival.model = "poisson";
  config.arrival.params.rate_scale = 1.0;
  config.trace_log = &log;
  const auto r =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);

  // The trace holds exactly the releases the run counted...
  ASSERT_EQ(log.count("release"), r.instances_released);
  // ...and their empirical rate matches lambda = 1/period within the
  // same > 3 sigma margin PoissonHitsItsMeanRate uses (sigma/mean =
  // 1/sqrt(4000) ~ 1.6%).
  const double rate = static_cast<double>(log.count("release")) / horizon;
  EXPECT_NEAR(rate, 1.0, 0.05);

  // Doubling rate_scale doubles the traced rate.
  obs::TraceLog log2;
  config.arrival.params.rate_scale = 2.0;
  config.trace_log = &log2;
  sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  const double rate2 = static_cast<double>(log2.count("release")) / horizon;
  EXPECT_NEAR(rate2, 2.0, 0.1);
}

TEST(ArrivalSim, TraceReleaseRateMatchesTheIpppEnvelopeMean) {
  // Same diagnostic against the inhomogeneous model: mean rate =
  // (1/period) * (1 + duty * (factor - 1)), the diurnal term averaging
  // out over whole cycles.
  tg::TaskGraphSet set;
  tg::TaskGraph g(1.0, "solo");
  g.add_node(1e6);
  set.add(std::move(g));
  const auto proc = dvs::Processor::paper_default();

  const double horizon = 6000.0;  // whole number of 600 s diurnal cycles
  obs::TraceLog log;
  sim::SimConfig config;
  config.horizon_s = horizon;
  config.seed = 17;
  config.arrival.model = "ippp";
  config.arrival.params.rate_scale = 1.0;
  config.arrival.params.diurnal_amp = 0.5;
  config.arrival.params.diurnal_period_s = 600.0;
  config.arrival.params.burst_factor = 3.0;
  config.arrival.params.burst_period_s = 100.0;
  config.arrival.params.burst_duty = 0.2;
  config.trace_log = &log;
  const auto r =
      sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config);
  ASSERT_EQ(log.count("release"), r.instances_released);
  const double expected = 1.0 * (1.0 + 0.2 * (3.0 - 1.0));  // 1.4 Hz
  const double rate = static_cast<double>(log.count("release")) / horizon;
  EXPECT_NEAR(rate, expected, 0.06 * expected);
}

// ------------------------------------------------- engine determinism

TEST(ArrivalSim, ArrivalAxisSweepIsThreadCountInvariant) {
  // The jobs=1 == jobs=4 contract of bench/arrival_stress at unit-test
  // scale: an (arrival x scheme) sweep over a real workload folds to
  // byte-identical results for any thread count.
  exp::ExperimentSpec spec;
  spec.title = "arrival_determinism";
  spec.grid = exp::Grid{
      std::vector<exp::Axis>{exp::arrival_axis(), exp::scheme_axis()}};
  spec.metrics = {"busy_s", "released", "misses"};
  spec.replicates = 2;
  spec.seed = 4242;
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    util::Rng rng(job.replicate_seed);
    const auto set = tgff::paper_workload(2, rng);
    const auto proc = dvs::Processor::paper_default();
    sim::SimConfig config;
    config.horizon_s = 8.0;
    config.drain = true;
    config.seed = util::Rng::hash_combine(job.replicate_seed, 1000u);
    config.arrival.model = arrival::labels()[job.at(0)];
    if (config.arrival.model == "trace-replay") {
      config.arrival.params.trace = "0;0.3;1.1";
    }
    const auto r = sim::simulate_scheme(
        set, proc, exp::scheme_kind_at(job.at(1)), config);
    return {r.busy_s, static_cast<double>(r.instances_released),
            static_cast<double>(r.deadline_misses)};
  };
  const auto serial = exp::run_experiment(spec, 1);
  const auto parallel = exp::run_experiment(spec, 4);
  EXPECT_EQ(exp::to_csv(serial), exp::to_csv(parallel));
}

}  // namespace
}  // namespace bas
