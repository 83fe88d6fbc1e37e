// Scenario gallery: every scheduling scheme on every scenario preset —
// the first multi-scenario result the repo produces in one command.
//
// The paper evaluates one workload shape (random TGFF sets at 70%
// utilization on one processor/battery pairing). The scenario registry
// generalizes that into a catalogue of worlds — media pipelines, sensor
// duty cycles, bursty arrivals, overload, ... — and this driver sweeps
// the full (scenario x scheme) cross product on the campaign runner, so
// the sweep spreads across threads and resumes from a cache like any
// other bench (--jobs/--cache/--merge/--progress).
//
//   ./scenario_gallery --list-scenarios     # the catalogue
//   ./scenario_gallery --sets 5 --jobs auto # the table
//   ./scenario_gallery --scenario.battery=ideal   # ablate the gallery
//
// Output: one row per scenario with the mean battery lifetime under
// each scheme, the BAS-2-over-laEDF gain, and whether the paper's
// ordering EDF <= ccEDF <= laEDF <= BAS-1 <= BAS-2 held. Any
// --scenario.FIELD override is applied to *every* preset, which turns
// the gallery into a one-flag ablation across the whole catalogue.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bas;
  // The gallery always sweeps the whole catalogue, so a --scenario
  // selector would be a silent no-op — drop it from the option set
  // (passing one errors loudly); --list-scenarios and the
  // --scenario.FIELD overrides keep working.
  auto defaults = util::Cli::with_bench_defaults(
      scenario::with_scenario_defaults(
          {{"sets", "3"}, {"seed", "2026"}}, ""));
  defaults.erase("scenario");
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const int sets = cli.get_int("sets");

    // Materialize every preset with the CLI overrides applied, plus its
    // platform, up front; jobs index into these read-only vectors.
    std::vector<scenario::ScenarioSpec> worlds;
    std::vector<dvs::Processor> procs;
    std::string catalogue_fingerprint;
    for (const auto& name : scenario::scenario_names()) {
      scenario::ScenarioSpec spec = scenario::scenario(name);
      scenario::apply_cli_overrides(spec, cli);
      catalogue_fingerprint += (catalogue_fingerprint.empty() ? "" : "; ") +
                               spec.fingerprint();
      procs.push_back(spec.make_processor());
      worlds.push_back(std::move(spec));
    }

    util::print_banner(
        "Scenario gallery: battery lifetime (min) per scheme per scenario");
    std::printf("config: %s\n%d set(s) per cell; see --list-scenarios for the "
                "catalogue\n\n",
                cli.summary().c_str(), sets);

    exp::ExperimentSpec spec;
    spec.title = "scenario_gallery";
    spec.config = cli.config_summary() + " | " + catalogue_fingerprint;
    spec.grid =
        exp::Grid{std::vector<exp::Axis>{exp::scenario_axis(),
                                         exp::scheme_axis()}};
    spec.metrics = {"lifetime_min", "delivered_mah", "energy_j", "misses"};
    spec.replicates = sets;
    spec.seed = cli.get_u64("seed");
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      const auto& world = worlds[job.at(0)];
      // The workload keys off (replicate, scenario) — schemes within a
      // scenario see the same random sets (CRN), scenarios draw their own.
      util::Rng rng(util::Rng::hash_combine(job.replicate_seed, job.at(0)));
      const auto set = world.make_workload(rng);
      const auto config =
          world.sim_config(util::Rng::hash_combine(job.replicate_seed, 1000u));
      const auto battery = world.make_battery();
      const auto r = sim::simulate_scheme(
          set, procs[job.at(0)], exp::scheme_kind_at(job.at(1)), config,
          battery.get());
      return {r.battery_lifetime_s / 60.0, r.battery_delivered_mah, r.energy_j,
              static_cast<double>(r.deadline_misses)};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));
    const std::size_t kLife = result.metric_index("lifetime_min");
    const std::size_t kMisses = result.metric_index("misses");

    std::vector<std::string> headers{"scenario"};
    for (const auto& scheme : exp::scheme_labels()) {
      headers.push_back(scheme);
    }
    headers.push_back("BAS-2/laEDF");
    headers.push_back("ordered?");
    headers.push_back("misses");
    util::Table table(headers);

    // The two schemes of the gain column, by label.
    const std::size_t kLaEdf = exp::scheme_index("laEDF");
    const std::size_t kBas2 = exp::scheme_index("BAS-2");
    const std::size_t n_schemes = exp::scheme_labels().size();
    int ordered_scenarios = 0;
    for (std::size_t s = 0; s < worlds.size(); ++s) {
      std::vector<std::string> row{worlds[s].name};
      bool ordered = true;
      double misses = 0.0;
      for (std::size_t k = 0; k < n_schemes; ++k) {
        const double life = result.mean({s, k}, kLife);
        row.push_back(util::Table::num(life, 0));
        // A 0.1% slack keeps ties (saturated scenarios where ordering
        // cannot matter) from reading as violations.
        if (k > 0 && life < 0.999 * result.mean({s, k - 1}, kLife)) {
          ordered = false;
        }
        misses += result.sum({s, k}, kMisses);
      }
      const double laedf = result.mean({s, kLaEdf}, kLife);
      const double bas2 = result.mean({s, kBas2}, kLife);
      const double gain_pct = 100.0 * (bas2 / laedf - 1.0);
      row.push_back((gain_pct >= 0.0 ? "+" : "") +
                    util::Table::num(gain_pct, 1) + "%");
      row.push_back(ordered ? "yes" : "no");
      row.push_back(util::Table::num(static_cast<long long>(misses)));
      ordered_scenarios += ordered ? 1 : 0;
      table.add_row(row);
    }
    table.print();
    std::printf(
        "\n%d/%zu scenarios keep the paper's full ordering "
        "EDF <= ccEDF <= laEDF <= BAS-1 <= BAS-2.\n"
        "Shape check: the BAS-2-over-laEDF gain is positive wherever the "
        "cell has nonlinear dynamics and the load leaves room to reorder "
        "(overload compresses it, idle-heavy shrinks every gap).\n",
        ordered_scenarios, worlds.size());

    exp::write_csv_option(cli, result);
    return 0;
  });
}
