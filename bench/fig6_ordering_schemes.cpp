// Reproduces Figure 6: energy consumption of the ordering schemes as the
// number of task graphs grows, normalized with respect to the
// near-optimal schedule obtained by removing precedence constraints
// within the task graphs. All schemes employ laEDF for frequency
// setting (paper §5, second simulation set).
//
// Shape to reproduce: all schemes diverge from near-optimal (ratio 1.0)
// as graphs are added, but pUBS over all released tasks stays closest,
// then pUBS on the most imminent graph, then LTF, then Random.
//
// The world comes from the scenario registry (`paper-fig6` by default;
// --scenario / --scenario.FIELD pick or reshape it). The graph-count
// axis overrides the scenario's graph count per cell; a 60 s default
// --scenario.horizon and the figure's drain-to-completion behaviour
// override its lifetime-style simulation window. One engine job = one
// (graph count, set) pair; it prices the near-optimal reference once
// and then all four ordering schemes on the same workload, so the
// normalization shares random numbers by construction.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/compare.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

bas::core::Scheme make_ordering_scheme(const std::string& which,
                                       double fmax_hz, std::uint64_t seed) {
  using namespace bas;
  if (which == "random") {
    return core::make_custom_scheme(
        "Random", dvs::make_la_edf(fmax_hz), sched::make_random_priority(seed),
        sched::make_history_estimator(), core::ReadyScope::kMostImminent);
  }
  if (which == "ltf") {
    return core::make_custom_scheme(
        "LTF", dvs::make_la_edf(fmax_hz), sched::make_ltf_priority(),
        sched::make_history_estimator(), core::ReadyScope::kMostImminent);
  }
  if (which == "pubs-imminent") {
    return core::make_custom_scheme(
        "pUBS/imminent", dvs::make_la_edf(fmax_hz), sched::make_pubs_priority(),
        sched::make_history_estimator(), core::ReadyScope::kMostImminent);
  }
  return core::make_custom_scheme(
      "pUBS/all", dvs::make_la_edf(fmax_hz), sched::make_pubs_priority(),
      sched::make_history_estimator(), core::ReadyScope::kAllReleased);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bas;
  const auto defaults =
      util::Cli::with_bench_defaults(scenario::with_scenario_defaults(
          {{"sets", "10"},
           {"seed", "6"},
           {"max-graphs", "10"},
           {"scenario.horizon", "60"}},
          "paper-fig6"));
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const int sets = cli.get_int("sets");
    const int max_graphs = cli.get_int("max-graphs");

    // The taskgraphs axis owns the graph count; refuse the override
    // instead of silently ignoring it (use --max-graphs to size the axis).
    if (!cli.get("scenario.graphs").empty()) {
      throw std::invalid_argument(
          "fig6 sweeps the graph count as its axis; use "
          "--max-graphs instead of --scenario.graphs");
    }
    auto base = scenario::from_cli(cli);
    // The figure is an energy comparison over a fixed window, not a
    // run-to-battery-death: short horizon (the --scenario.horizon
    // default above), drain in-flight work.
    base.sim.drain = true;
    const auto proc = base.make_processor();
    const std::vector<std::string> schemes{"random", "ltf", "pubs-imminent",
                                           "pubs-all"};

    util::print_banner(
        "Figure 6: energy of ordering schemes normalized w.r.t. near-optimal");
    std::printf("config: %s\n\n", cli.summary().c_str());

    std::vector<int> graph_counts;
    std::vector<std::string> graph_labels;
    for (int graphs = 2; graphs <= max_graphs; graphs += 2) {
      graph_counts.push_back(graphs);
      graph_labels.push_back(std::to_string(graphs));
    }

    exp::ExperimentSpec spec;
    spec.title = "fig6_ordering_schemes";
    spec.config = cli.config_summary() + " | " + base.fingerprint();
    spec.grid.add("taskgraphs", graph_labels);
    spec.metrics = {"random", "ltf", "pubs_imminent", "pubs_all"};
    spec.replicates = sets;
    spec.seed = cli.get_u64("seed");
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      util::Rng rng(job.seed);
      auto scn = base;
      scn.workload.graph_count = graph_counts[job.at(0)];
      const auto set = scn.make_workload(rng);
      const auto config =
          scn.sim_config(util::Rng::hash_combine(job.seed, 555u));

      const double near_opt =
          analysis::near_optimal_energy_j(set, proc, config);

      std::vector<double> ratios;
      ratios.reserve(schemes.size());
      for (const auto& which : schemes) {
        core::Scheme scheme =
            make_ordering_scheme(which, proc.fmax_hz(), config.seed);
        sim::Simulator sim(set, proc, scheme, config);
        ratios.push_back(sim.run().energy_j / near_opt);
      }
      return ratios;
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    util::Table table({"# taskgraphs", "Random", "LTF", "pUBS(imminent)",
                       "pUBS(all released)"});
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
      table.add_row({result.grid().labels(c)[0],
                     util::Table::num(result.mean(c, 0), 3),
                     util::Table::num(result.mean(c, 1), 3),
                     util::Table::num(result.mean(c, 2), 3),
                     util::Table::num(result.mean(c, 3), 3)});
    }
    table.print();
    std::printf(
        "\nShape check vs paper: pUBS(all released) stays closest to "
        "1.0.\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
