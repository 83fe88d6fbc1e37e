#include "scenario/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "arrival/arrival.hpp"
#include "battery/diffusion.hpp"
#include "battery/ideal.hpp"
#include "battery/kibam.hpp"
#include "battery/peukert.hpp"
#include "battery/stochastic.hpp"
#include "util/cli.hpp"
#include "util/text.hpp"
#include "util/table.hpp"

namespace bas::scenario {

namespace {

std::string ac_model_to_string(sim::AcModel model) {
  return model == sim::AcModel::kIid ? "iid" : "per-node-mean";
}

sim::AcModel ac_model_from_string(const std::string& text) {
  if (text == "iid") {
    return sim::AcModel::kIid;
  }
  if (text == "per-node-mean") {
    return sim::AcModel::kPerNodeMean;
  }
  throw std::invalid_argument("unknown AC model '" + text +
                              "' (known: iid, per-node-mean)");
}

std::string method_to_string(tgff::Method method) {
  switch (method) {
    case tgff::Method::kFanInFanOut:
      return "fan-in-fan-out";
    case tgff::Method::kLayered:
      return "layered";
    case tgff::Method::kSeriesParallel:
      return "series-parallel";
  }
  return "?";
}

double parse_double(const std::string& key, const std::string& text) {
  if (const auto value = util::parse_double(text);
      value && std::isfinite(*value)) {
    return *value;
  }
  throw std::invalid_argument("--scenario." + key +
                              " expects a finite number, got '" + text + "'");
}

int parse_int(const std::string& key, const std::string& text) {
  const auto value = util::parse_int(text);
  if (value && *value >= std::numeric_limits<int>::min() &&
      *value <= std::numeric_limits<int>::max()) {
    return static_cast<int>(*value);
  }
  throw std::invalid_argument("--scenario." + key +
                              " expects an integer, got '" + text + "'");
}

/// Shared baseline every preset tweaks: the paper's lifetime-evaluation
/// defaults (24 h horizon, no drain, per-node-mean actuals, no
/// trace recording — battery death ends the run).
ScenarioSpec lifetime_base() {
  ScenarioSpec spec;
  spec.workload.graph_count = 3;
  spec.workload.min_nodes = 5;
  spec.workload.max_nodes = 15;
  spec.workload.period_lo_s = 0.5;
  spec.workload.period_hi_s = 5.0;
  spec.utilization = 0.7;
  spec.basis = UtilBasis::kActual;
  spec.battery = "kibam";
  spec.processor = "paper";
  spec.sim.horizon_s = 24.0 * 3600.0;
  spec.sim.drain = false;
  spec.sim.record_trace = false;
  spec.sim.ac_model = sim::AcModel::kPerNodeMean;
  return spec;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> presets;

  {
    // The paper's §5 evaluation world, exactly as table2 ran it.
    ScenarioSpec s = lifetime_base();
    s.name = "paper-table2";
    s.summary =
        "the paper's evaluation: 3 TGFF graphs, 70% actual utilization, "
        "KiBaM cell";
    presets.push_back(s);
  }
  {
    // High sustained load: the frequency staircase spans the whole DVS
    // range, so the *order* of the discharge currents (Guideline 1) is
    // what separates the schemes.
    ScenarioSpec s = lifetime_base();
    s.name = "paper-guideline1";
    s.summary =
        "high-load Guideline-1 regime: 85% actual utilization, profile "
        "shape decides the gap";
    s.utilization = 0.85;
    presets.push_back(s);
  }
  {
    // The Figure-6 world: ordering-scheme comparisons over a growing
    // graph count. Drivers that want the figure's energy-only short run
    // override horizon/drain; as a lifetime scenario it behaves like
    // paper-table2 with one more graph.
    ScenarioSpec s = lifetime_base();
    s.name = "paper-fig6";
    s.summary =
        "Figure-6 ordering world: 4 graphs at 70% actual utilization";
    s.workload.graph_count = 4;
    presets.push_back(s);
  }
  {
    // A handheld media player: series-parallel pipelines at frame
    // periods. Short periods mean thousands of scheduling decisions per
    // battery percent — the throughput stress.
    ScenarioSpec s = lifetime_base();
    s.name = "multimedia-pipeline";
    s.summary =
        "media-player pipelines: series-parallel graphs at 20-200 ms "
        "frame periods";
    s.workload.graph_count = 3;
    s.workload.min_nodes = 4;
    s.workload.max_nodes = 8;
    s.workload.period_lo_s = 0.02;
    s.workload.period_hi_s = 0.2;
    s.workload.shape.method = tgff::Method::kSeriesParallel;
    s.utilization = 0.65;
    s.sim.horizon_s = 6.0 * 3600.0;
    presets.push_back(s);
  }
  {
    // A duty-cycled sensor node: tiny graphs, long periods, deep idle.
    // The diffusion cell's recovery effect dominates; schemes differ in
    // how well their idle windows let trapped charge equalize.
    ScenarioSpec s = lifetime_base();
    s.name = "sensor-node";
    s.summary =
        "duty-cycled sensing: 25% utilization, 2-10 s periods, "
        "recovery-dominated diffusion cell";
    s.workload.graph_count = 2;
    s.workload.min_nodes = 3;
    s.workload.max_nodes = 6;
    s.workload.period_lo_s = 2.0;
    s.workload.period_hi_s = 10.0;
    s.utilization = 0.25;
    s.battery = "diffusion";
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.horizon_s = 48.0 * 3600.0;
    presets.push_back(s);
  }
  {
    // Inhomogeneous arrivals (Hohmann-style burstiness by composition):
    // periods spanning two decades and a strongly skewed utilization
    // split make releases cluster, so the instantaneous demand swings
    // far around its mean.
    ScenarioSpec s = lifetime_base();
    s.name = "bursty";
    s.summary =
        "bursty arrivals: 5 graphs, periods over two decades, skewed "
        "utilization split";
    s.workload.graph_count = 5;
    s.workload.period_lo_s = 0.05;
    s.workload.period_hi_s = 5.0;
    s.workload.utilization_spread = 1.5;
    s.utilization = 0.6;
    s.sim.ac_model = sim::AcModel::kIid;
    presets.push_back(s);
  }
  {
    // Near saturation: worst-case utilization ~1.53, so deadlines only
    // hold when schemes exploit early completions — the feasibility
    // guard and the estimator earn their keep here.
    ScenarioSpec s = lifetime_base();
    s.name = "overload";
    s.summary =
        "near-saturation: 92% actual utilization, survival depends on "
        "exploiting early completions";
    s.workload.graph_count = 4;
    s.utilization = 0.92;
    presets.push_back(s);
  }
  {
    // Periods two orders of magnitude apart: laEDF's lookahead window
    // is dominated by the short-period graphs while the long-period
    // ones carry most of the work.
    ScenarioSpec s = lifetime_base();
    s.name = "mixed-periods";
    s.summary =
        "timescale mix: 6 graphs with 0.1-10 s periods, lookahead vs "
        "long-horizon work";
    s.workload.graph_count = 6;
    s.workload.period_lo_s = 0.1;
    s.workload.period_hi_s = 10.0;
    s.utilization = 0.6;
    presets.push_back(s);
  }
  {
    // Mostly idle on the stochastic cell: lifetime is bounded by idle
    // draw and recovery luck, not by execution energy — the regime
    // where DVS gains saturate and profile shaping is all that's left.
    ScenarioSpec s = lifetime_base();
    s.name = "idle-heavy";
    s.summary =
        "mostly idle: 30% utilization on the stochastic cell, lifetime "
        "bounded by idle draw and recovery";
    s.workload.graph_count = 2;
    s.workload.period_lo_s = 1.0;
    s.workload.period_hi_s = 5.0;
    s.utilization = 0.3;
    s.battery = "stochastic";
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.horizon_s = 48.0 * 3600.0;
    presets.push_back(s);
  }
  {
    // True time-varying traffic: an inhomogeneous Poisson release
    // process whose rate swells sinusoidally ("diurnal" compressed to
    // 30 min so several cycles fit one battery life) and triples inside
    // periodic on/off burst windows. Instantaneous demand far exceeds
    // its mean — the regime the old `bursty` preset only approximated
    // by composing mismatched periods.
    ScenarioSpec s = lifetime_base();
    s.name = "ippp-diurnal";
    s.summary =
        "IPPP arrivals: sinusoidal diurnal swell x 3x on/off bursts over "
        "a 55% mean load";
    s.workload.graph_count = 4;
    s.workload.period_lo_s = 0.5;
    s.workload.period_hi_s = 5.0;
    s.utilization = 0.55;
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.arrival.model = "ippp";
    s.sim.arrival.params.rate_scale = 1.0;
    s.sim.arrival.params.diurnal_amp = 0.5;
    s.sim.arrival.params.diurnal_period_s = 1800.0;
    s.sim.arrival.params.burst_factor = 3.0;
    s.sim.arrival.params.burst_period_s = 300.0;
    s.sim.arrival.params.burst_duty = 0.2;
    presets.push_back(s);
  }
  {
    // Event-driven sensing: the sporadic task model (minimum separation
    // plus an exponential gap) halves the mean arrival rate, so the
    // diffusion cell's recovery windows are long but irregular.
    ScenarioSpec s = lifetime_base();
    s.name = "sporadic-sensor";
    s.summary =
        "sporadic sensing: min-separation + exponential gaps on a "
        "recovery-dominated diffusion cell";
    s.workload.graph_count = 2;
    s.workload.min_nodes = 3;
    s.workload.max_nodes = 6;
    s.workload.period_lo_s = 2.0;
    s.workload.period_hi_s = 10.0;
    s.utilization = 0.3;
    s.battery = "diffusion";
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.horizon_s = 48.0 * 3600.0;
    s.sim.arrival.model = "sporadic";
    s.sim.arrival.params.gap_frac = 1.0;
    presets.push_back(s);
  }
  {
    // Memoryless traffic across two decades of periods: homogeneous
    // Poisson releases make back-to-back arrivals routine, so the
    // feasibility guard and estimator face genuinely random demand.
    ScenarioSpec s = lifetime_base();
    s.name = "poisson-mix";
    s.summary =
        "Poisson releases: memoryless arrivals across 0.1-10 s nominal "
        "periods";
    s.workload.graph_count = 6;
    s.workload.period_lo_s = 0.1;
    s.workload.period_hi_s = 10.0;
    s.utilization = 0.55;
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.arrival.model = "poisson";
    presets.push_back(s);
  }
  {
    // Trace-driven releases: a hand-written burst pattern (two quick
    // volleys, then silence) replayed cyclically — the demo for feeding
    // measured release logs in via --scenario.arrival.trace=@file.csv.
    ScenarioSpec s = lifetime_base();
    s.name = "trace-replay";
    s.summary =
        "trace-driven bursts: releases replayed from a CSV trace "
        "(inline demo; @file works too)";
    s.workload.graph_count = 2;
    s.workload.period_lo_s = 1.0;
    s.workload.period_hi_s = 2.0;
    s.utilization = 0.5;
    s.sim.ac_model = sim::AcModel::kIid;
    s.sim.arrival.model = "trace-replay";
    s.sim.arrival.params.trace = "0;0.15;0.4;3.0;3.2;8.0";
    s.sim.arrival.params.trace_repeat = true;
    presets.push_back(s);
  }
  return presets;
}

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> presets = build_registry();
  return presets;
}

UtilBasis util_basis_from_string(const std::string& text) {
  if (text == "actual") {
    return UtilBasis::kActual;
  }
  if (text == "worst-case") {
    return UtilBasis::kWorstCase;
  }
  throw std::invalid_argument("unknown utilization basis '" + text +
                              "' (known: actual, worst-case)");
}

/// {"paper", "continuous"}.
const std::vector<std::string>& processor_labels() {
  static const std::vector<std::string> labels{"paper", "continuous"};
  return labels;
}

}  // namespace

std::string to_string(UtilBasis basis) {
  return basis == UtilBasis::kActual ? "actual" : "worst-case";
}

double ScenarioSpec::worst_case_utilization() const {
  if (basis == UtilBasis::kWorstCase) {
    return utilization;
  }
  const double mean_frac = 0.5 * (sim.ac_lo_frac + sim.ac_hi_frac);
  return utilization / mean_frac;
}

tgff::WorkloadParams ScenarioSpec::workload_params() const {
  tgff::WorkloadParams params = workload;
  params.target_utilization = worst_case_utilization();
  return params;
}

tg::TaskGraphSet ScenarioSpec::make_workload(util::Rng& rng) const {
  return tgff::make_workload(workload_params(), rng);
}

dvs::Processor ScenarioSpec::make_processor() const {
  return scenario::make_processor(processor);
}

std::unique_ptr<bat::Battery> ScenarioSpec::make_battery() const {
  return scenario::make_battery(battery);
}

sim::SimConfig ScenarioSpec::sim_config(std::uint64_t seed) const {
  sim::SimConfig config = sim;
  config.seed = seed;
  return config;
}

std::string ScenarioSpec::fingerprint() const {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "scenario=" << name << " graphs=" << workload.graph_count
      << " nodes=" << workload.min_nodes << ".." << workload.max_nodes
      << " method=" << method_to_string(workload.shape.method)
      << " degree=" << workload.shape.max_in_degree << "/"
      << workload.shape.max_out_degree
      << " wcet=" << workload.shape.wcet_lo_cycles << ".."
      << workload.shape.wcet_hi_cycles
      << " edge-density=" << workload.shape.edge_density
      << " layers=" << workload.shape.layer_count
      << " periods=" << workload.period_lo_s << ".." << workload.period_hi_s
      << " spread=" << workload.utilization_spread
      << " fmax=" << workload.fmax_hz << " utilization=" << utilization
      << " basis=" << to_string(basis) << " battery=" << battery
      << " processor=" << processor << " horizon=" << sim.horizon_s
      << " drain=" << (sim.drain ? 1 : 0)
      << " ac-model=" << ac_model_to_string(sim.ac_model)
      << " ac=" << sim.ac_lo_frac << ".." << sim.ac_hi_frac
      << " ac-jitter=" << sim.ac_jitter
      << " battery-window=" << sim.battery_window_s
      << " " << arrival::fingerprint(sim.arrival);
  return out.str();
}

const std::vector<std::string>& battery_labels() {
  static const std::vector<std::string> labels{
      "ideal", "peukert", "kibam", "diffusion", "stochastic"};
  return labels;
}

std::unique_ptr<bat::Battery> make_battery(const std::string& label) {
  if (label == "ideal") {
    return std::make_unique<bat::IdealBattery>(bat::to_coulombs(2000.0));
  }
  if (label == "peukert") {
    return std::make_unique<bat::PeukertBattery>(
        bat::PeukertParams{bat::to_coulombs(2000.0), 1.2, 0.2});
  }
  if (label == "kibam") {
    return std::make_unique<bat::KibamBattery>(
        bat::KibamParams::paper_aaa_nimh());
  }
  if (label == "diffusion") {
    return std::make_unique<bat::DiffusionBattery>(
        bat::DiffusionParams::paper_aaa_nimh());
  }
  if (label == "stochastic") {
    return std::make_unique<bat::StochasticBattery>(bat::StochasticParams{});
  }
  throw std::invalid_argument("unknown battery model '" + label +
                              "' (known: " + util::join(battery_labels()) + ")");
}

dvs::Processor make_processor(const std::string& label) {
  if (label == "paper") {
    return dvs::Processor::paper_default();
  }
  if (label == "continuous") {
    return dvs::Processor::continuous_ideal(1e9, 5.0);
  }
  throw std::invalid_argument("unknown processor '" + label +
                              "' (known: " + util::join(processor_labels()) + ")");
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& preset : registry()) {
      out.push_back(preset.name);
    }
    return out;
  }();
  return names;
}

const ScenarioSpec& scenario(const std::string& name) {
  for (const auto& preset : registry()) {
    if (preset.name == name) {
      return preset;
    }
  }
  throw std::invalid_argument("unknown scenario '" + name +
                              "' (known: " + util::join(scenario_names()) + ")");
}

namespace {

/// One `--scenario.FIELD` override: the field name (without the
/// "scenario." prefix) and how a non-empty value lands in the spec.
/// The one list behind the CLI defaults, apply_cli_overrides and the
/// --list-scenarios help; overrides apply in table order, and the
/// effective spec is validated as a whole once they all landed.
struct OverrideField {
  const char* name;
  void (*apply)(ScenarioSpec& spec, const std::string& name,
                const std::string& value);
};

using Value = const std::string&;

const OverrideField kOverrideFields[] = {
    {"utilization", [](ScenarioSpec& s, Value f, Value v) {
       s.utilization = parse_double(f, v);
     }},
    {"util-basis", [](ScenarioSpec& s, Value, Value v) {
       s.basis = util_basis_from_string(v);
     }},
    {"graphs", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.graph_count = parse_int(f, v);
     }},
    {"min-nodes", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.min_nodes = parse_int(f, v);
     }},
    {"max-nodes", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.max_nodes = parse_int(f, v);
     }},
    {"period-lo", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.period_lo_s = parse_double(f, v);
     }},
    {"period-hi", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.period_hi_s = parse_double(f, v);
     }},
    {"spread", [](ScenarioSpec& s, Value f, Value v) {
       s.workload.utilization_spread = parse_double(f, v);
     }},
    {"battery", [](ScenarioSpec& s, Value, Value v) {
       make_battery(v);  // validate the label before adopting it
       s.battery = v;
     }},
    {"processor", [](ScenarioSpec& s, Value, Value v) {
       make_processor(v);
       s.processor = v;
     }},
    {"horizon", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.horizon_s = parse_double(f, v);
     }},
    {"ac-model", [](ScenarioSpec& s, Value, Value v) {
       s.sim.ac_model = ac_model_from_string(v);
     }},
    {"battery-window", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.battery_window_s = parse_double(f, v);
     }},
    {"arrival", [](ScenarioSpec& s, Value, Value v) {
       s.sim.arrival.model = v;
     }},
    {"arrival.jitter", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.jitter_frac = parse_double(f, v);
     }},
    {"arrival.gap", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.gap_frac = parse_double(f, v);
     }},
    {"arrival.rate-scale", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.rate_scale = parse_double(f, v);
     }},
    {"arrival.diurnal-amp", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.diurnal_amp = parse_double(f, v);
     }},
    {"arrival.diurnal-period", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.diurnal_period_s = parse_double(f, v);
     }},
    {"arrival.burst-factor", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.burst_factor = parse_double(f, v);
     }},
    {"arrival.burst-period", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.burst_period_s = parse_double(f, v);
     }},
    {"arrival.burst-duty", [](ScenarioSpec& s, Value f, Value v) {
       s.sim.arrival.params.burst_duty = parse_double(f, v);
     }},
    {"arrival.trace", [](ScenarioSpec& s, Value, Value v) {
       // Load it now even when the preset's model does not replay it: a
       // driver's trace-replay cells (arrival_stress) will.
       arrival::load_trace(v);
       s.sim.arrival.params.trace = v;
     }},
    {"arrival.trace-repeat", [](ScenarioSpec& s, Value, Value v) {
       if (v != "0" && v != "1" && v != "true" && v != "false") {
         throw std::invalid_argument(
             "--scenario.arrival.trace-repeat expects 0/1/true/false, got '" +
             v + "'");
       }
       s.sim.arrival.params.trace_repeat = v == "1" || v == "true";
     }},
};

}  // namespace

std::map<std::string, std::string> with_scenario_defaults(
    std::map<std::string, std::string> defaults,
    const std::string& default_scenario) {
  defaults.emplace("scenario", default_scenario);
  defaults.emplace("list-scenarios", "false");
  for (const auto& field : kOverrideFields) {
    defaults.emplace(std::string("scenario.") + field.name, "");
  }
  return defaults;
}

void apply_cli_overrides(ScenarioSpec& spec, const util::Cli& cli) {
  for (const auto& field : kOverrideFields) {
    const std::string key = std::string("scenario.") + field.name;
    const std::string value = cli.has(key) ? cli.get(key) : std::string();
    if (!value.empty()) {
      field.apply(spec, field.name, value);
    }
  }
  // Run the job path's own checks on the effective spec, so a value a
  // job would reject fails at parse time instead of inside a worker.
  tgff::validate(spec.workload_params());
  sim::validate(spec.sim);
}

ScenarioSpec from_cli(const util::Cli& cli) {
  ScenarioSpec spec = scenario(cli.get("scenario"));
  apply_cli_overrides(spec, cli);
  return spec;
}

bool handle_list_request(const util::Cli& cli) {
  if (!cli.has("list-scenarios") || !cli.get_flag("list-scenarios")) {
    return false;
  }
  util::Table table({"scenario", "graphs", "periods (s)", "util", "basis",
                     "battery", "arrival", "ac model", "summary"});
  for (const auto& name : scenario_names()) {
    const auto& s = scenario(name);
    table.add_row({s.name, std::to_string(s.workload.graph_count),
                   util::Table::num(s.workload.period_lo_s, 2) + ".." +
                       util::Table::num(s.workload.period_hi_s, 2),
                   util::Table::num(s.utilization, 2), to_string(s.basis),
                   s.battery, s.sim.arrival.model,
                   ac_model_to_string(s.sim.ac_model), s.summary});
  }
  table.print();
  std::string fields;
  for (const auto& field : kOverrideFields) {
    fields += fields.empty() ? "" : ", ";
    fields += field.name;
  }
  std::printf(
      "\nOverride any field of the chosen preset with "
      "--scenario.FIELD=VALUE (fields: %s).\n",
      fields.c_str());
  return true;
}

}  // namespace bas::scenario
