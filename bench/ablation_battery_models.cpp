// Ablation: does the Table-2 conclusion depend on the battery model?
//
// The paper evaluates on the stochastic model of [13]; our substitution
// note (DESIGN.md §5) claims scheme *rankings* are model-robust. This
// bench reruns the Table-2 comparison against every battery model in
// the library. The ideal battery is the control: without rate-capacity
// and recovery effects, lifetime differences reduce to pure energy
// differences.
//
// The workload world comes from the scenario registry (`paper-table2`
// by default; --scenario / --scenario.FIELD reshape it) — the battery
// axis replaces the scenario's own cell. The engine runs the
// (battery model x scheme x set) grid across threads; workloads key off the replicate
// seed so every cell sees the same sets (CRN).

#include <cstdio>
#include <stdexcept>
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
  const auto defaults =
      util::Cli::with_bench_defaults(scenario::with_scenario_defaults(
          {{"sets", "6"}, {"seed", "29"}}, "paper-table2"));
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const int sets = cli.get_int("sets");

    // The battery axis owns the cell choice; refuse the override instead
    // of silently ignoring it.
    if (!cli.get("scenario.battery").empty()) {
      throw std::invalid_argument(
          "this ablation sweeps every battery model as its axis; "
          "--scenario.battery has no effect here");
    }
    const auto scn = scenario::from_cli(cli);
    const auto proc = scn.make_processor();

    util::print_banner(
        "Ablation: Table-2 lifetimes (min) across battery models");
    std::printf("config: %s\n\n", cli.summary().c_str());

    exp::ExperimentSpec spec;
    spec.title = "ablation_battery_models";
    spec.config = cli.config_summary() + " | " + scn.fingerprint();
    spec.grid = exp::Grid{std::vector<exp::Axis>{exp::battery_axis(),
                                                 exp::scheme_axis()}};
    spec.metrics = {"lifetime_min"};
    spec.replicates = sets;
    spec.seed = cli.get_u64("seed");
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      util::Rng rng(job.replicate_seed);
      const auto set = scn.make_workload(rng);
      const auto config =
          scn.sim_config(util::Rng::hash_combine(job.replicate_seed, 100u));
      const auto battery =
          scenario::make_battery(scenario::battery_labels()[job.at(0)]);
      const auto r = sim::simulate_scheme(
          set, proc, exp::scheme_kind_at(job.at(1)), config, battery.get());
      return {r.battery_lifetime_s / 60.0};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    const auto kinds = core::table2_schemes();
    std::vector<std::string> headers{"model"};
    for (const auto kind : kinds) {
      headers.push_back(core::to_string(kind));
    }
    headers.push_back("BAS-2/laEDF");
    util::Table table(headers);
    for (std::size_t m = 0; m < scenario::battery_labels().size(); ++m) {
      std::vector<std::string> row{scenario::battery_labels()[m]};
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        row.push_back(util::Table::num(result.mean({m, k}, 0), 0));
      }
      row.push_back(
          util::Table::num(result.mean({m, 4}, 0) / result.mean({m, 2}, 0), 3));
      table.add_row(row);
    }
    table.print();
    std::printf(
        "\nShape check: EDF < ccEDF < laEDF <= BAS-1 <= BAS-2 on every row "
        "with nonlinear dynamics; on the ideal battery the residual gap is "
        "pure energy.\n");
    exp::write_csv_option(cli, result);
    return 0;
  });
}
