// Observability-layer tests: attaching a TraceLog or recording the
// phase profile must not perturb any simulation figure (the
// instrumentation-only contract), the Chrome-trace JSON
// must be well formed with per-track monotone timestamps, the phase
// taxonomy's names must stay fixed (they are a schema), and the
// metrics registry must keep names unique and in stable order.
//
// The ON-vs-OFF *build* identity (BAS_PROFILE=1 binaries reproduce the
// default build bit for bit) is pinned by running this suite and the
// golden smoke under both CMake configurations in CI; within one
// binary these tests pin the runtime half of the contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

sim::SimResult run_scenario(const std::string& name, std::uint64_t seed,
                            bool perf_counters,
                            obs::TraceLog* trace_log,
                            double horizon_s = 600.0,
                            bool phase_profile = false) {
  const auto& spec = scenario::scenario(name);
  util::Rng rng(seed);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(seed, 1000u));
  config.record_perf_counters = perf_counters;
  config.record_phase_profile = phase_profile;
  config.trace_log = trace_log;
  config.horizon_s = horizon_s;
  auto battery = scenario::make_battery(spec.battery);
  return sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config,
                              battery.get());
}

void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b,
                          const char* label) {
  EXPECT_EQ(a.end_time_s, b.end_time_s) << label;
  EXPECT_EQ(a.energy_j, b.energy_j) << label;
  EXPECT_EQ(a.charge_c, b.charge_c) << label;
  EXPECT_EQ(a.busy_s, b.busy_s) << label;
  EXPECT_EQ(a.battery_lifetime_s, b.battery_lifetime_s) << label;
  EXPECT_EQ(a.battery_delivered_mah, b.battery_delivered_mah) << label;
  EXPECT_EQ(a.instances_released, b.instances_released) << label;
  EXPECT_EQ(a.instances_completed, b.instances_completed) << label;
  EXPECT_EQ(a.nodes_executed, b.nodes_executed) << label;
  EXPECT_EQ(a.preemptions, b.preemptions) << label;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << label;
}

// ----------------------------------------------- instrumentation-only

TEST(Obs, AttachingATraceDoesNotPerturbTheRun) {
  const auto plain = run_scenario("paper-table2", 3, false, nullptr);
  obs::TraceLog log;
  const auto traced = run_scenario("paper-table2", 3, false, &log);
  expect_bitwise_equal(plain, traced, "trace");
  EXPECT_GT(log.size(), 0u);
}

TEST(Obs, RecordingThePhaseProfileDoesNotPerturbTheRun) {
  // record_phase_profile is what arms the PhaseClock in BAS_PROFILE
  // builds; either way the figures must be bit-equal to a bare run.
  const auto plain = run_scenario("paper-table2", 5, false, nullptr);
  const auto profiled = run_scenario("paper-table2", 5, true, nullptr, 600.0,
                                     /*phase_profile=*/true);
  expect_bitwise_equal(plain, profiled, "profile");
}

TEST(Obs, PhaseProfileMatchesTheBuildConfiguration) {
  const auto r = run_scenario("paper-table2", 7, true, nullptr, 600.0,
                              /*phase_profile=*/true);
  const auto& phases = r.perf.phases;
  std::uint64_t laps = 0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    laps += phases.laps[p];
  }
  if (obs::PhaseProfile::compiled_in) {
    // Every phase boundary in the loop body fired at least once and
    // the lap count tracks the step count (several laps per step).
    EXPECT_GT(phases.total_ns(), 0u);
    EXPECT_GE(laps, r.perf.steps);
    EXPECT_GT(phases.laps[static_cast<int>(obs::Phase::kIncrementalMaint)],
              0u);
  } else {
    EXPECT_EQ(phases.total_ns(), 0u);
    EXPECT_EQ(laps, 0u);
  }
}

TEST(Obs, PhasesCoverTheLoopBody) {
  // The taxonomy partitions the scheduling loop: on a dense cell the
  // phase sum must account for >= 85% of the sim's own wall time (the
  // remainder is the boundary clock reads plus setup outside the
  // loop). Guards against phase re-partitions that silently drop hot
  // work out of the table — the attribution is only trustworthy while
  // coverage stays high. BAS_PROFILE builds only.
  if (!obs::PhaseProfile::compiled_in) {
    GTEST_SKIP() << "profiler not compiled in";
  }
  const auto& spec = scenario::scenario("paper-table2");
  util::Rng rng(7);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(7u, 1000u));
  config.record_perf_counters = true;
  config.record_phase_profile = true;
  auto battery = scenario::make_battery(spec.battery);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = sim::simulate_scheme(set, proc, core::SchemeKind::kBas2,
                                      config, battery.get());
  const auto wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_GT(wall_s, 0.0);
  const double covered_s = static_cast<double>(r.perf.phases.total_ns()) / 1e9;
  EXPECT_GE(covered_s / wall_s, 0.85);
}

TEST(Obs, PhaseProfileStaysZeroWithoutTheOptIn) {
  // The clock is armed by record_phase_profile only — in particular
  // record_perf_counters (which every timed bench rep sets) must NOT
  // arm it, or the perf gate would time the clock reads.
  const auto r = run_scenario("paper-table2", 9, true, nullptr);
  EXPECT_EQ(r.perf.phases.total_ns(), 0u);
}

// ------------------------------------------------------- trace format

TEST(Obs, TraceCountsReleasesAndCompletions) {
  obs::TraceLog log;
  const auto r = run_scenario("paper-table2", 11, false, &log);
  EXPECT_EQ(log.count("release"), r.instances_released);
  EXPECT_EQ(log.count("complete"), r.instances_completed);
}

TEST(Obs, SortedEventsAreMonotonePerTrack) {
  obs::TraceLog log;
  run_scenario("paper-table2", 13, true, &log);
  log.name_process(obs::kSimPid, "sim");
  const auto events = log.sorted_events();
  ASSERT_GT(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto& a = events[i - 1];
    const auto& b = events[i];
    if (a.pid == b.pid && a.tid == b.tid) {
      EXPECT_LE(a.ts_us, b.ts_us) << "track (" << a.pid << ", " << a.tid
                                  << ") event " << i;
    }
  }
}

TEST(Obs, TraceJsonIsWellFormed) {
  obs::TraceLog log;
  log.name_process(obs::kSimPid, "sim \"quoted\" \\ name");
  log.span("a span", obs::kSimPid, 0, 1.5, 2.25, "{\"graph\": 1}");
  log.instant("marker\nwith newline", obs::kSimPid, 1, 3.0);
  const std::string json = log.to_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  // Balanced braces/brackets and no raw control characters — the
  // structural half of "python3 -m json.tool passes" (CI runs the
  // real parser over --trace-out output).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control character in JSON";
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']': --depth; break;
      default: break;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // The metadata record and both events survived rendering.
  EXPECT_EQ(log.size(), 3u);
}

TEST(Obs, TraceCapturesExecutionSpansInSimTime) {
  obs::TraceLog log;
  const auto r = run_scenario("paper-table2", 17, false, &log);
  std::size_t spans = 0;
  double last_end_us = 0.0;
  for (const auto& event : log.sorted_events()) {
    if (event.ph != 'X' || event.pid != obs::kSimPid) {
      continue;
    }
    ++spans;
    EXPECT_GE(event.dur_us, 0.0);
    last_end_us = std::max(last_end_us, event.ts_us + event.dur_us);
  }
  EXPECT_GT(spans, 0u);
  // Sim-time spans live inside the simulated horizon (us = s * 1e6).
  EXPECT_LE(last_end_us, r.end_time_s * 1e6 + 1.0);
}

// --------------------------------------------------- phase vocabulary

TEST(Obs, PhaseNamesAndFieldsAreASchema) {
  // These strings are load-bearing: trace span names, bas-perf JSON
  // keys and the metrics registry all use them. Renaming one is a
  // schema change (bump kSchema in bench/perf_hotpath.cpp).
  using obs::Phase;
  EXPECT_STREQ(obs::phase_name(Phase::kQueueOps), "queue-ops");
  EXPECT_STREQ(obs::phase_name(Phase::kIncrementalMaint),
               "incremental-maint");
  EXPECT_STREQ(obs::phase_name(Phase::kBookkeeping), "bookkeeping");
  EXPECT_STREQ(obs::phase_name(Phase::kDvsSelect), "dvs-select");
  EXPECT_STREQ(obs::phase_name(Phase::kCandidateBuild), "candidate-build");
  EXPECT_STREQ(obs::phase_name(Phase::kEstimateScore), "estimate-score");
  EXPECT_STREQ(obs::phase_name(Phase::kSelect), "select");
  EXPECT_STREQ(obs::phase_name(Phase::kBatteryAdvance), "battery-advance");
  EXPECT_STREQ(obs::phase_field(Phase::kQueueOps), "ph_queue_ops_ns");
  EXPECT_STREQ(obs::phase_field(Phase::kIncrementalMaint),
               "ph_incremental_maint_ns");
  EXPECT_STREQ(obs::phase_field(Phase::kBatteryAdvance),
               "ph_battery_advance_ns");
  std::set<std::string> names;
  std::set<std::string> fields;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    names.insert(obs::phase_name(static_cast<Phase>(p)));
    fields.insert(obs::phase_field(static_cast<Phase>(p)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(obs::kPhaseCount));
  EXPECT_EQ(fields.size(), static_cast<std::size_t>(obs::kPhaseCount));
}

TEST(Obs, PhaseProfileAccumulates) {
  obs::PhaseProfile a;
  a.ns[0] = 10;
  a.laps[0] = 1;
  obs::PhaseProfile b;
  b.ns[0] = 5;
  b.ns[6] = 7;
  b.laps[6] = 2;
  a += b;
  EXPECT_EQ(a.ns[0], 15u);
  EXPECT_EQ(a.ns[6], 7u);
  EXPECT_EQ(a.total_ns(), 22u);
  a.clear();
  EXPECT_EQ(a.total_ns(), 0u);
  EXPECT_EQ(a.laps[6], 0u);
}

// ---------------------------------------------------- metrics registry

TEST(Obs, MetricsRegistryKeepsOrderAndUniqueness) {
  obs::Metrics m;
  m.set("steps", 10);
  m.set("draws", 4);
  m.set("depth", 2, obs::MetricKind::kGauge);
  m.set("steps", 12);   // overwrite, not duplicate
  m.add("draws", 3);    // accumulate
  m.add("fresh", 1);    // add registers when absent
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.entries()[0].name, "steps");
  EXPECT_EQ(m.entries()[1].name, "draws");
  EXPECT_EQ(m.entries()[2].name, "depth");
  EXPECT_EQ(m.entries()[3].name, "fresh");
  EXPECT_EQ(m.value("steps"), 12.0);
  EXPECT_EQ(m.value("draws"), 7.0);
  EXPECT_EQ(m.entries()[2].kind, obs::MetricKind::kGauge);
  EXPECT_TRUE(m.has("depth"));
  EXPECT_FALSE(m.has("missing"));
  EXPECT_THROW(m.value("missing"), std::out_of_range);
}

TEST(Obs, FormatValuePrintsCountersAsIntegers) {
  EXPECT_EQ(obs::format_value(0.0), "0");
  EXPECT_EQ(obs::format_value(42.0), "42");
  EXPECT_EQ(obs::format_value(1e15), "1000000000000000");
  EXPECT_EQ(obs::format_value(2.5), "2.5");
  EXPECT_EQ(obs::format_value(1.0 / 3.0), "0.333333");
}

TEST(Obs, PerfCounterFillerNamesAreUniqueAndStable) {
  const auto r = run_scenario("paper-table2", 19, true, nullptr);
  obs::Metrics m;
  obs::fill(m, r.perf);
  std::set<std::string> names;
  for (const auto& entry : m.entries()) {
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate metric " << entry.name;
  }
  // The registry carries all three legacy surfaces: hot-path lanes,
  // kernel k_* counters, phase ph_* fields.
  EXPECT_TRUE(m.has("steps"));
  EXPECT_TRUE(m.has("battery_draws"));
  EXPECT_TRUE(m.has("events_popped"));
  EXPECT_TRUE(m.has("edf_incremental_ops"));
  EXPECT_TRUE(m.has("k_exp_sweeps"));
  EXPECT_TRUE(m.has("ph_queue_ops_ns"));
  EXPECT_TRUE(m.has("ph_incremental_maint_ns"));
  EXPECT_TRUE(m.has("ph_battery_advance_ns"));
  EXPECT_TRUE(m.has("ph_laps"));
  EXPECT_EQ(m.value("steps"), static_cast<double>(r.perf.steps));
  // Filling twice overwrites in place — same names, same order.
  const auto before = m.size();
  obs::Metrics twice;
  obs::fill(twice, r.perf);
  obs::fill(twice, r.perf);
  EXPECT_EQ(twice.size(), before);
}

}  // namespace
}  // namespace bas
