// Tests for the scenario layer: registry contents and round-trips, every
// preset building and simulating deterministically, the unknown-name
// error, the CLI override surface, and the factory forwarding that keeps
// exp:: and scenario:: label lists from drifting.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrival/arrival.hpp"
#include "exp/factories.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

util::Cli make_cli(std::vector<const char*> args,
                   const std::string& default_scenario = "paper-table2") {
  args.insert(args.begin(), "bench");
  return util::Cli(static_cast<int>(args.size()), args.data(),
                   util::Cli::with_bench_defaults(
                       scenario::with_scenario_defaults({}, default_scenario)));
}

// ------------------------------------------------------------ registry

TEST(ScenarioRegistry, HasAtLeastEightDistinctPresets) {
  const auto& names = scenario::scenario_names();
  EXPECT_GE(names.size(), 8u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const char* required :
       {"paper-table2", "paper-guideline1", "multimedia-pipeline",
        "sensor-node", "bursty", "overload", "mixed-periods", "idle-heavy",
        "ippp-diurnal", "sporadic-sensor", "poisson-mix", "trace-replay"}) {
    EXPECT_NO_THROW(scenario::scenario(required)) << required;
  }
  // The arrival-process presets actually carry non-periodic clocks.
  EXPECT_EQ(scenario::scenario("ippp-diurnal").sim.arrival.model, "ippp");
  EXPECT_EQ(scenario::scenario("sporadic-sensor").sim.arrival.model,
            "sporadic");
  EXPECT_EQ(scenario::scenario("poisson-mix").sim.arrival.model, "poisson");
  EXPECT_EQ(scenario::scenario("trace-replay").sim.arrival.model,
            "trace-replay");
  EXPECT_EQ(scenario::scenario("paper-table2").sim.arrival.model, "periodic");
}

TEST(ScenarioRegistry, RoundTripsNameAndFingerprint) {
  std::set<std::string> fingerprints;
  for (const auto& name : scenario::scenario_names()) {
    const auto& spec = scenario::scenario(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.summary.empty());
    // Same name -> same spec -> same fingerprint; the fingerprint names
    // the scenario so distinct presets can never collide.
    EXPECT_EQ(spec.fingerprint(), scenario::scenario(name).fingerprint());
    EXPECT_NE(spec.fingerprint().find("scenario=" + name), std::string::npos);
    fingerprints.insert(spec.fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), scenario::scenario_names().size());
}

TEST(ScenarioRegistry, UnknownNameErrorListsValidNames) {
  try {
    scenario::scenario("no-such-world");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-world"), std::string::npos);
    for (const auto& name : scenario::scenario_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST(ScenarioRegistry, EveryPresetBuildsItsWorld) {
  for (const auto& name : scenario::scenario_names()) {
    const auto& spec = scenario::scenario(name);
    util::Rng rng(42);
    const auto set = spec.make_workload(rng);
    EXPECT_EQ(set.size(), static_cast<std::size_t>(spec.workload.graph_count))
        << name;
    const auto proc = spec.make_processor();
    EXPECT_NEAR(set.utilization(proc.fmax_hz()),
                spec.worst_case_utilization(), 1e-6)
        << name;
    const auto battery = spec.make_battery();
    ASSERT_NE(battery, nullptr) << name;
    EXPECT_EQ(battery->name(), spec.battery) << name;
  }
}

TEST(ScenarioRegistry, EveryPresetSimulatesDeterministically) {
  for (const auto& name : scenario::scenario_names()) {
    const auto& spec = scenario::scenario(name);
    const auto proc = spec.make_processor();
    auto run_once = [&] {
      util::Rng rng(7);
      const auto set = spec.make_workload(rng);
      auto config = spec.sim_config(99);
      config.horizon_s = 5.0;  // keep the suite fast; drain for equal work
      config.drain = true;
      const auto battery = spec.make_battery();
      return sim::simulate_scheme(set, proc, core::SchemeKind::kBas2, config,
                                  battery.get());
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_GT(a.nodes_executed, 0u) << name;
    EXPECT_EQ(a.energy_j, b.energy_j) << name;
    EXPECT_EQ(a.charge_c, b.charge_c) << name;
    EXPECT_EQ(a.end_time_s, b.end_time_s) << name;
    EXPECT_EQ(a.battery_delivered_mah, b.battery_delivered_mah) << name;
  }
}

TEST(ScenarioSpec, UtilizationBasisScalesWorstCaseTarget) {
  auto spec = scenario::scenario("paper-table2");
  ASSERT_EQ(spec.basis, scenario::UtilBasis::kActual);
  // ac in U(0.2, 1.0) -> mean fraction 0.6.
  EXPECT_NEAR(spec.worst_case_utilization(), spec.utilization / 0.6, 1e-12);
  spec.basis = scenario::UtilBasis::kWorstCase;
  EXPECT_EQ(spec.worst_case_utilization(), spec.utilization);
}

// ----------------------------------------------------------------- CLI

TEST(ScenarioCli, SelectsPresetAndAppliesOverrides) {
  const auto cli = make_cli({"--scenario", "bursty",
                             "--scenario.utilization=0.9",
                             "--scenario.graphs", "7",
                             "--scenario.battery=peukert",
                             "--scenario.util-basis=worst-case",
                             "--scenario.horizon", "120",
                             "--scenario.ac-model=per-node-mean"});
  const auto spec = scenario::from_cli(cli);
  EXPECT_EQ(spec.name, "bursty");
  EXPECT_EQ(spec.utilization, 0.9);
  EXPECT_EQ(spec.workload.graph_count, 7);
  EXPECT_EQ(spec.battery, "peukert");
  EXPECT_EQ(spec.basis, scenario::UtilBasis::kWorstCase);
  EXPECT_EQ(spec.sim.horizon_s, 120.0);
  EXPECT_EQ(spec.sim.ac_model, sim::AcModel::kPerNodeMean);
  // Untouched fields keep the preset's values.
  EXPECT_EQ(spec.workload.period_lo_s,
            scenario::scenario("bursty").workload.period_lo_s);
}

TEST(ScenarioCli, OverrideChangesConfigSummaryForCacheInvalidation) {
  const auto plain = make_cli({});
  const auto overridden = make_cli({"--scenario.utilization=0.9"});
  EXPECT_NE(plain.config_summary(), overridden.config_summary());
  EXPECT_NE(overridden.config_summary().find("--scenario.utilization 0.9"),
            std::string::npos);
  // Unset overrides stay out of the summary entirely (they are empty),
  // so adding a new override field later cannot invalidate old caches.
  EXPECT_EQ(plain.config_summary().find("scenario.utilization"),
            std::string::npos);
  // And the fingerprint seen by the experiment spec changes too.
  EXPECT_NE(scenario::from_cli(plain).fingerprint(),
            scenario::from_cli(overridden).fingerprint());
}

TEST(ScenarioCli, BadOverridesThrowWithValidChoices) {
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.utilization=fast"})),
               std::invalid_argument);
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.ac-model=weird"})),
               std::invalid_argument);
  try {
    scenario::from_cli(make_cli({"--scenario.battery=unobtainium"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    for (const auto& label : scenario::battery_labels()) {
      EXPECT_NE(std::string(e.what()).find(label), std::string::npos);
    }
  }
  try {
    scenario::from_cli(make_cli({"--scenario.processor=quantum"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("continuous"), std::string::npos);
  }
}

TEST(ScenarioCli, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.utilization=nan"})),
               std::invalid_argument);
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.horizon=inf"})),
               std::invalid_argument);
}

TEST(ScenarioCli, WorkloadRangesAreCheckedAtParseTime) {
  // tgff::validate on the effective parameters: what make_workload
  // would reject inside job 0 fails here instead.
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.utilization=5"})),
               std::invalid_argument);
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.graphs=0"})),
               std::invalid_argument);
}

TEST(ScenarioCli, HorizonIsCheckedAtParseTime) {
  // sim::validate on the effective config, as the Simulator runs it.
  EXPECT_THROW(scenario::from_cli(make_cli({"--scenario.horizon=-1"})),
               std::invalid_argument);
}

TEST(ScenarioCli, TraceOverrideIsLoadedWhateverTheModel) {
  // paper-table2 releases periodically; the trace is still loaded,
  // because a driver's trace-replay cells replay it.
  EXPECT_THROW(scenario::from_cli(make_cli(
                   {"--scenario.arrival.trace=@no-such-dir/trace.csv"})),
               std::invalid_argument);
  EXPECT_NO_THROW(
      scenario::from_cli(make_cli({"--scenario.arrival.trace=0;1.5"})));
}

TEST(ScenarioCli, EngineOverrideIsAnUnknownOption) {
  // The simulator has one loop; --scenario.engine is no longer an
  // override field and fails at parse time like any unknown option.
  try {
    make_cli({"--scenario.engine=tick"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option --scenario.engine"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioCli, BatteryWindowOverrideEntersFingerprint) {
  // The merge window moves battery figures, so it keys campaign caches.
  EXPECT_NE(
      scenario::from_cli(make_cli({"--scenario.battery-window=2.5"}))
          .fingerprint(),
      scenario::from_cli(make_cli({})).fingerprint());
}

TEST(ScenarioFingerprint, PaperTable2IsPinned) {
  // The fingerprint keys every campaign store. This is
  // the exact string caches were written under, literal engine=event
  // token included; any change orphans every stored result.
  EXPECT_EQ(scenario::scenario("paper-table2").fingerprint(),
            "scenario=paper-table2 graphs=3 nodes=5..15 "
            "method=fan-in-fan-out degree=3/3 wcet=1000000..10000000 "
            "edge-density=0.25 layers=0 periods=0.5..5 spread=0.5 "
            "fmax=1000000000 utilization=0.69999999999999996 basis=actual "
            "battery=kibam processor=paper horizon=86400 drain=0 "
            "ac-model=per-node-mean ac=0.20000000000000001..1 "
            "ac-jitter=0.10000000000000001 stop-on-empty=1 engine=event "
            "battery-window=5 arrival=periodic");
}

TEST(ScenarioCli, ArrivalOverridesSelectModelAndKnobs) {
  const auto cli = make_cli({"--scenario.arrival=ippp",
                             "--scenario.arrival.rate-scale=1.5",
                             "--scenario.arrival.diurnal-amp=0.4",
                             "--scenario.arrival.burst-factor=2.5",
                             "--scenario.arrival.burst-period=120",
                             "--scenario.arrival.burst-duty=0.3"});
  const auto spec = scenario::from_cli(cli);
  EXPECT_EQ(spec.sim.arrival.model, "ippp");
  EXPECT_EQ(spec.sim.arrival.params.rate_scale, 1.5);
  EXPECT_EQ(spec.sim.arrival.params.diurnal_amp, 0.4);
  EXPECT_EQ(spec.sim.arrival.params.burst_factor, 2.5);
  EXPECT_EQ(spec.sim.arrival.params.burst_period_s, 120.0);
  EXPECT_EQ(spec.sim.arrival.params.burst_duty, 0.3);
  // The arrival choice enters the scenario fingerprint (cache key).
  EXPECT_NE(spec.fingerprint().find("arrival=ippp"), std::string::npos);
  EXPECT_NE(spec.fingerprint(),
            scenario::from_cli(make_cli({})).fingerprint());

  const auto jitter = scenario::from_cli(
      make_cli({"--scenario.arrival=periodic-jitter",
                "--scenario.arrival.jitter=0.6"}));
  EXPECT_EQ(jitter.sim.arrival.params.jitter_frac, 0.6);
  const auto trace = scenario::from_cli(
      make_cli({"--scenario.arrival=trace-replay",
                "--scenario.arrival.trace=0;1;2",
                "--scenario.arrival.trace-repeat=false"}));
  EXPECT_EQ(trace.sim.arrival.params.trace, "0;1;2");
  EXPECT_FALSE(trace.sim.arrival.params.trace_repeat);
}

TEST(ScenarioCli, BadArrivalOverridesThrowEagerly) {
  try {
    scenario::from_cli(make_cli({"--scenario.arrival=burst-o-matic"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ippp"), std::string::npos);
  }
  // A bad knob for the chosen model fails at CLI-parse time, not inside
  // a campaign worker.
  EXPECT_THROW(
      scenario::from_cli(make_cli({"--scenario.arrival=periodic-jitter",
                                   "--scenario.arrival.jitter=1.5"})),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::from_cli(make_cli({"--scenario.arrival=trace-replay"})),
      std::invalid_argument);  // no trace supplied
  EXPECT_THROW(scenario::from_cli(
                   make_cli({"--scenario.arrival.trace-repeat=maybe"})),
               std::invalid_argument);
}

TEST(ScenarioCli, ListRequestFlag) {
  EXPECT_FALSE(scenario::handle_list_request(make_cli({})));
  testing::internal::CaptureStdout();
  EXPECT_TRUE(scenario::handle_list_request(make_cli({"--list-scenarios"})));
  const std::string help = testing::internal::GetCapturedStdout();
  // The help names every --scenario.FIELD override the CLI accepts.
  std::size_t fields = 0;
  for (const auto& [key, unused] :
       scenario::with_scenario_defaults({}, "paper-table2")) {
    if (key.rfind("scenario.", 0) != 0) {
      continue;
    }
    ++fields;
    const std::string field = key.substr(9);
    EXPECT_TRUE(help.find(" " + field + ",") != std::string::npos ||
                help.find(" " + field + ")") != std::string::npos)
        << field;
  }
  EXPECT_EQ(fields, 24u);
}

// ----------------------------------------------- factories integration

TEST(ScenarioFactories, ExpForwardsToTheScenarioRegistry) {
  EXPECT_EQ(exp::battery_axis().labels, scenario::battery_labels());
  for (const auto& label : scenario::battery_labels()) {
    EXPECT_EQ(scenario::make_battery(label)->name(), label);
  }
  EXPECT_THROW(scenario::make_battery("unobtainium"), std::invalid_argument);
  EXPECT_THROW(scenario::make_processor("quantum"), std::invalid_argument);
  EXPECT_TRUE(scenario::make_processor("continuous").continuous());
  EXPECT_FALSE(scenario::make_processor("paper").continuous());

  const auto axis = exp::scenario_axis();
  EXPECT_EQ(axis.name, "scenario");
  EXPECT_EQ(axis.labels, scenario::scenario_names());

  const auto arrivals = exp::arrival_axis();
  EXPECT_EQ(arrivals.name, "arrival");
  EXPECT_EQ(arrivals.labels, arrival::labels());
}

}  // namespace
}  // namespace bas
