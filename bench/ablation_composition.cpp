// Ablation: full DVS-algorithm x priority-function x ready-scope matrix.
//
// The paper's closing claim is that the methodology composes "with
// little or no changes with any frequency setting algorithm and any
// priority function without deadline violation". This bench runs the
// whole cross product on one workload batch and reports lifetime — and
// that the miss count is zero everywhere.
//
// The world comes from the scenario registry (`paper-table2` by
// default; --scenario / --scenario.FIELD reshape it). The engine runs
// the (scope x DVS x priority x set) grid across threads; workloads key off the
// replicate seed so every cell sees the same sets (CRN).

#include <cstdio>
#include <functional>
#include <vector>

#include "core/scheme.hpp"
#include "dvs/clamped.hpp"
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
          {{"sets", "6"}, {"seed", "23"}}, "paper-table2"));
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const int sets = cli.get_int("sets");
    const auto seed = cli.get_u64("seed");

    const auto scn = scenario::from_cli(cli);
    const auto proc = scn.make_processor();
    const double fmax = proc.fmax_hz();

    struct DvsRow {
      const char* label;
      std::function<std::unique_ptr<dvs::DvsPolicy>()> make;
    };
    const std::vector<DvsRow> dvs_rows{
        {"noDVS", [&] { return dvs::make_no_dvs(fmax); }},
        {"static", [&] { return dvs::make_static_dvs(fmax); }},
        {"ccEDF", [&] { return dvs::make_cc_edf(fmax); }},
        {"laEDF", [&] { return dvs::make_la_edf(fmax); }},
        {"laEDF+clamp",
         [&] { return dvs::make_profile_clamped(dvs::make_la_edf(fmax)); }},
    };
    struct PrioCol {
      const char* label;
      std::function<std::unique_ptr<sched::PriorityPolicy>()> make;
    };
    const std::vector<PrioCol> prio_cols{
        {"Random", [&] { return sched::make_random_priority(seed); }},
        {"LTF", [] { return sched::make_ltf_priority(); }},
        {"STF", [] { return sched::make_stf_priority(); }},
        {"pUBS", [] { return sched::make_pubs_priority(); }},
    };
    const std::vector<core::ReadyScope> scopes{core::ReadyScope::kMostImminent,
                                               core::ReadyScope::kAllReleased};

    util::print_banner(
        "Ablation: lifetime (min) for DVS x priority x ready-scope");
    std::printf("config: %s\n\n", cli.summary().c_str());

    exp::ExperimentSpec spec;
    spec.title = "ablation_composition";
    spec.config = cli.config_summary() + " | " + scn.fingerprint();
    spec.grid.add("scope", {"most-imminent", "all-released"});
    std::vector<std::string> dvs_labels;
    for (const auto& d : dvs_rows) {
      dvs_labels.push_back(d.label);
    }
    spec.grid.add("dvs", dvs_labels);
    std::vector<std::string> prio_labels;
    for (const auto& p : prio_cols) {
      prio_labels.push_back(p.label);
    }
    spec.grid.add("priority", prio_labels);
    spec.metrics = {"lifetime_min", "misses"};
    spec.replicates = sets;
    spec.seed = seed;
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      util::Rng rng(job.replicate_seed);
      const auto set = scn.make_workload(rng);

      const auto& d = dvs_rows[job.at(1)];
      const auto& p = prio_cols[job.at(2)];
      core::Scheme scheme = core::make_custom_scheme(
          std::string(d.label) + "+" + p.label, d.make(), p.make(),
          sched::make_history_estimator(), scopes[job.at(0)]);

      const auto config =
          scn.sim_config(util::Rng::hash_combine(job.replicate_seed, 100u));
      const auto battery = scn.make_battery();
      sim::Simulator sim(set, proc, scheme, config);
      const auto r = sim.run(battery.get());
      return {r.battery_lifetime_s / 60.0,
              static_cast<double>(r.deadline_misses)};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    double total_misses = 0.0;
    for (std::size_t scope = 0; scope < scopes.size(); ++scope) {
      std::printf("ready list: %s\n",
                  scope == 0 ? "most imminent graph (BAS-1 style)"
                             : "all released graphs + feasibility check (BAS-2 "
                               "style)");
      std::vector<std::string> headers{"DVS \\ priority"};
      for (const auto& p : prio_cols) {
        headers.push_back(p.label);
      }
      util::Table table(headers);
      for (std::size_t d = 0; d < dvs_rows.size(); ++d) {
        std::vector<std::string> row{dvs_rows[d].label};
        for (std::size_t p = 0; p < prio_cols.size(); ++p) {
          row.push_back(util::Table::num(result.mean({scope, d, p}, 0), 1));
          total_misses += result.sum({scope, d, p}, 1);
        }
        table.add_row(row);
      }
      table.print();
      std::printf("\n");
    }
    std::printf("deadline misses across the whole matrix: %.0f\n",
                total_misses);
    std::printf(
        "Shape check: every cell is deadline-clean; pUBS columns dominate "
        "their Random counterparts, laEDF rows dominate ccEDF, and the "
        "all-released scope adds on top.\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
