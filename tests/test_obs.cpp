// Observability-layer tests: attaching a TraceLog must not perturb
// any simulation figure (the instrumentation-only contract), and the
// Chrome-trace JSON must be well formed with per-track monotone
// timestamps.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

sim::SimResult run_scenario(const std::string& name, std::uint64_t seed,
                            bool perf_counters,
                            obs::TraceLog* trace_log) {
  const auto& spec = scenario::scenario(name);
  util::Rng rng(seed);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(seed, 1000u));
  config.record_perf_counters = perf_counters;
  config.trace_log = trace_log;
  config.horizon_s = 600.0;
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

}  // namespace
}  // namespace bas
