#pragma once
// Declarative scenarios: one named, fingerprintable description of a
// complete experimental world — workload generation (tgff parameters),
// platform (DVS processor + battery) and simulation knobs — so every
// bench driver and example assembles its world through one registry
// instead of hand-rolling WorkloadParams + Processor + battery wiring.
//
// The registry ships presets that stress the BAS-2-vs-laEDF gap in
// deliberately different ways (the paper evaluates only one shape:
// random TGFF sets at 70% utilization). Presets are plain values:
// copy one, tweak a field, and the experiment engine will sweep it like
// any other axis (exp::scenario_axis()). Every field that can change a
// simulation output is serialized by fingerprint(), which drivers fold
// into ExperimentSpec::config so the campaign resume cache invalidates
// when a preset's *definition* changes, not only its name.
//
// CLI surface (see with_scenario_defaults / from_cli):
//   --scenario NAME              pick a preset
//   --list-scenarios             print the catalogue and exit
//   --scenario.FIELD=VALUE       override one field of the chosen preset
//                                (utilization, graphs, battery, ...)

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "battery/model.hpp"
#include "dvs/processor.hpp"
#include "sim/simulator.hpp"
#include "taskgraph/set.hpp"
#include "tgff/workload.hpp"
#include "util/rng.hpp"

namespace bas::util {
class Cli;
}

namespace bas::scenario {

/// How ScenarioSpec::utilization is interpreted when building workloads.
enum class UtilBasis {
  /// The target is the *actual* utilization: the worst-case target
  /// passed to the workload builder is u / mean(ac fraction). The
  /// paper's anchors ("utilization of the system was kept to 70%") are
  /// only reproducible on this basis — see EXPERIMENTS.md, calibration.
  kActual,
  /// The target is the worst-case utilization at fmax (the strict
  /// EDF-guaranteed regime).
  kWorstCase,
};

std::string to_string(UtilBasis basis);

struct ScenarioSpec {
  /// Registry key; also the label the scenario axis shows.
  std::string name;
  /// One-line catalogue text: what this scenario stresses.
  std::string summary;

  /// Workload generation. `workload.target_utilization` is ignored —
  /// the effective target is derived from `utilization` and `basis`
  /// (worst_case_utilization()).
  tgff::WorkloadParams workload;
  double utilization = 0.7;
  UtilBasis basis = UtilBasis::kActual;

  /// Platform, by registry label (battery_labels(); make_processor()
  /// lists the processor labels).
  std::string battery = "kibam";
  std::string processor = "paper";

  /// Simulation knobs (horizon, drain, AC model, ...). The seed field is
  /// a placeholder — take per-job configs from sim_config(seed).
  sim::SimConfig sim;

  /// The worst-case utilization handed to the workload builder:
  /// `utilization` itself on the worst-case basis, or scaled by the mean
  /// actual-computation fraction ((ac_lo + ac_hi) / 2) on the actual
  /// basis.
  double worst_case_utilization() const;

  /// The tgff parameters make_workload builds from: `workload` with the
  /// target utilization set to worst_case_utilization().
  tgff::WorkloadParams workload_params() const;

  /// Builds one random task-graph set of this scenario.
  tg::TaskGraphSet make_workload(util::Rng& rng) const;

  /// Fresh platform objects.
  dvs::Processor make_processor() const;
  std::unique_ptr<bat::Battery> make_battery() const;

  /// The scenario's SimConfig with the given per-job seed.
  sim::SimConfig sim_config(std::uint64_t seed) const;

  /// Canonical "key=value" serialization of every output-affecting
  /// field (17 significant digits, so distinct doubles never collide).
  /// Fold it into ExperimentSpec::config: the resume cache then treats
  /// an edited preset as a different sweep.
  std::string fingerprint() const;
};

// ---------------------------------------------------------------------
// Platform registries — the single source of truth for label -> object.
// Drivers and exp::battery_axis build on these, so the experiment
// factories and the scenario layer cannot drift apart.

/// {"ideal", "peukert", "kibam", "diffusion", "stochastic"}.
const std::vector<std::string>& battery_labels();

/// Fresh cell by label, calibrated to the paper's 2000 mAh AAA NiMH
/// where the model has parameters to calibrate. Throws
/// std::invalid_argument on an unknown label (the message lists the
/// valid ones).
std::unique_ptr<bat::Battery> make_battery(const std::string& label);

/// "paper": the 3-point evaluation processor (Processor::paper_default).
/// "continuous": the continuous-frequency idealization used by the
/// energy-only experiments. Throws std::invalid_argument on an unknown
/// label (the message lists the valid ones).
dvs::Processor make_processor(const std::string& label);

// ---------------------------------------------------------------------
// Scenario registry.

/// Preset names in catalogue order (>= 8 presets).
const std::vector<std::string>& scenario_names();

/// Preset by name; throws std::invalid_argument on an unknown name (the
/// message lists every valid one).
const ScenarioSpec& scenario(const std::string& name);

// ---------------------------------------------------------------------
// CLI integration.

/// Merges the scenario options into `defaults` (without overriding
/// caller-provided entries): `--scenario` (preset name, defaulting to
/// `default_scenario`), the `--list-scenarios` flag, and one
/// `--scenario.FIELD` override per overridable field (empty = keep the
/// preset's value). Compose with Cli::with_bench_defaults.
std::map<std::string, std::string> with_scenario_defaults(
    std::map<std::string, std::string> defaults,
    const std::string& default_scenario);

/// Applies the non-empty `--scenario.FIELD` overrides to `spec`. The
/// fields are listed once, in kOverrideFields (scenario.cpp), which
/// also feeds with_scenario_defaults and the --list-scenarios help.
/// Throws std::invalid_argument on an unparsable or non-finite value,
/// an unknown battery/processor/basis/AC-model/arrival label, an
/// unloadable --scenario.arrival.trace (whatever the arrival model),
/// or an effective spec that a job would reject: tgff::validate on
/// workload_params() and sim::validate on `sim`.
void apply_cli_overrides(ScenarioSpec& spec, const util::Cli& cli);

/// scenario(--scenario) with the --scenario.FIELD overrides applied.
ScenarioSpec from_cli(const util::Cli& cli);

/// When --list-scenarios was passed: prints the catalogue (name,
/// summary, headline parameters per preset) to stdout and returns true;
/// the driver should exit 0. Returns false otherwise.
bool handle_list_request(const util::Cli& cli);

}  // namespace bas::scenario
