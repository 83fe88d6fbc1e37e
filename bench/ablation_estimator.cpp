// Ablation: how much of BAS's gain comes from estimate quality?
//
// The paper notes (§4.2) that pUBS degrades to a random-like schedule
// with bad estimates and is near-optimal with accurate ones. This bench
// runs BAS-2 with the full estimator ladder — worst-case (no
// information), static mean, history EMA (the paper's suggestion), and
// oracle (clairvoyant) — under both actual-computation models, reporting
// battery lifetime and energy.
//
// The world comes from the scenario registry (`paper-table2` by
// default; --scenario / --scenario.FIELD reshape it); the AC-model axis
// overrides the scenario's own setting per cell. The engine runs the
// (AC model x estimator x set) grid across threads; workloads key off the replicate
// seed so every rung sees the same sets (CRN).

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/scheme.hpp"
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
          {{"sets", "8"}, {"seed", "17"}}, "paper-table2"));
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const int sets = cli.get_int("sets");

    // The ac_model axis owns the actual-computation regime; refuse the
    // override instead of silently ignoring it.
    if (!cli.get("scenario.ac-model").empty()) {
      throw std::invalid_argument(
          "this ablation sweeps both AC models as its axis; "
          "--scenario.ac-model has no effect here");
    }
    const auto scn = scenario::from_cli(cli);
    const auto proc = scn.make_processor();

    struct Ladder {
      const char* label;
      std::function<std::unique_ptr<sched::Estimator>()> make;
    };
    const std::vector<Ladder> ladder{
        {"worst-case", [] { return sched::make_worst_case_estimator(); }},
        {"mean-0.6wc", [] { return sched::make_mean_fraction_estimator(); }},
        {"history-EMA", [] { return sched::make_history_estimator(); }},
        {"oracle", [] { return sched::make_oracle_estimator(); }},
    };
    const std::vector<sim::AcModel> ac_models{sim::AcModel::kPerNodeMean,
                                              sim::AcModel::kIid};

    util::print_banner("Ablation: estimator quality under BAS-2");
    std::printf("config: %s\n\n", cli.summary().c_str());

    std::vector<std::string> rung_labels;
    for (const auto& rung : ladder) {
      rung_labels.push_back(rung.label);
    }

    exp::ExperimentSpec spec;
    spec.title = "ablation_estimator";
    spec.config = cli.config_summary() + " | " + scn.fingerprint();
    spec.grid.add("ac_model", {"per-node-mean", "iid"});
    spec.grid.add("estimator", rung_labels);
    spec.metrics = {"lifetime_min", "delivered_mah", "energy_j"};
    spec.replicates = sets;
    spec.seed = cli.get_u64("seed");
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      util::Rng rng(job.replicate_seed);
      const auto set = scn.make_workload(rng);

      const auto& rung = ladder[job.at(1)];
      core::Scheme scheme = core::make_custom_scheme(
          rung.label, dvs::make_la_edf(proc.fmax_hz()),
          sched::make_pubs_priority(), rung.make(),
          core::ReadyScope::kAllReleased);

      auto config =
          scn.sim_config(util::Rng::hash_combine(job.replicate_seed, 100u));
      config.ac_model = ac_models[job.at(0)];

      const auto battery = scn.make_battery();
      sim::Simulator sim(set, proc, scheme, config);
      const auto r = sim.run(battery.get());
      return {r.battery_lifetime_s / 60.0, r.battery_delivered_mah, r.energy_j};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    for (std::size_t a = 0; a < ac_models.size(); ++a) {
      std::printf("actual-computation model: %s\n",
                  ac_models[a] == sim::AcModel::kIid
                      ? "iid U(0.2,1.0) per instance"
                      : "persistent per-node means");
      util::Table table(
          {"estimator", "lifetime (min)", "delivered (mAh)", "energy (J)"});
      for (std::size_t r = 0; r < ladder.size(); ++r) {
        table.add_row({ladder[r].label,
                       util::Table::num(result.mean({a, r}, 0), 1),
                       util::Table::num(result.mean({a, r}, 1), 0),
                       util::Table::num(result.mean({a, r}, 2), 0)});
      }
      table.print();
      std::printf("\n");
    }
    std::printf(
        "Shape check: lifetime rises monotonically up the ladder when the\n"
        "workload has learnable structure (per-node means); under iid\n"
        "actuals history can do no better than the static mean.\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
