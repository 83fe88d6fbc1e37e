// Reproduces the paper's load-vs-delivered-capacity battery curve (§5,
// "We can evaluate these values by plotting a load vs delivered capacity
// curve for the battery and extrapolating the ends").
//
// For each battery model, constant loads from tens of mA to several
// amperes are applied until cutoff. The low-current end extrapolates to
// the maximum capacity (2000 mAh for the paper's AAA NiMH cell); the
// high-current end approaches the available-well charge. The ideal
// battery is flat — it has no rate-capacity effect — which is exactly
// why battery-aware scheduling does not matter for it.
//
// The (model x load) grid runs on the experiment engine; each job
// discharges one fresh cell at one constant load.

#include <cstdio>
#include <string>
#include <vector>

#include "battery/lifetime.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bas;
  const auto defaults = util::Cli::with_bench_defaults({{"probe", "0.02"}});
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {

    const std::vector<double> loads{0.02, 0.05, 0.1, 0.2, 0.4, 0.7,
                                    1.0,  1.4,  1.8, 2.5, 3.5, 5.0};
    std::vector<std::string> load_labels;
    for (const double load : loads) {
      load_labels.push_back(util::Table::num(load, 2));
    }

    util::print_banner(
        "Rate-capacity curves: delivered capacity (mAh) vs constant load (A)");

    exp::ExperimentSpec spec;
    spec.title = "rate_capacity_curve";
    spec.config = cli.config_summary();
    spec.grid = exp::Grid{}.add("battery", scenario::battery_labels())
                    .add("load_a", load_labels);
    spec.metrics = {"delivered_mah", "lifetime_min"};
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      const auto model =
          scenario::make_battery(scenario::battery_labels()[job.at(0)]);
      const auto point =
          bat::rate_capacity_curve(*model, {loads[job.at(1)]}).front();
      return {point.delivered_mah, point.lifetime_min};
    };
    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    // Wide layout matching the paper's figure: one row per load, two
    // columns (capacity, lifetime) per model.
    std::vector<std::string> headers{"load_A"};
    for (const auto& model : scenario::battery_labels()) {
      headers.push_back(model + "_mAh");
      headers.push_back(model + "_min");
    }
    util::Table table(headers);
    for (std::size_t i = 0; i < loads.size(); ++i) {
      std::vector<std::string> row{load_labels[i]};
      for (std::size_t m = 0; m < scenario::battery_labels().size(); ++m) {
        row.push_back(util::Table::num(result.mean({m, i}, 0), 1));
        row.push_back(util::Table::num(result.mean({m, i}, 1), 1));
      }
      table.add_row(row);
    }
    table.print();

    const double probe = cli.get_double("probe");
    exp::ExperimentSpec extrapolate;
    extrapolate.title = "rate_capacity_extrapolation";
    extrapolate.config = cli.config_summary();
    extrapolate.grid.add("battery", scenario::battery_labels());
    extrapolate.metrics = {"max_capacity_mah"};
    extrapolate.run = [&](const exp::Job& job) -> std::vector<double> {
      const auto model =
          scenario::make_battery(scenario::battery_labels()[job.at(0)]);
      return {bat::max_capacity_mah(*model, probe)};
    };
    const auto caps =
        exp::run_experiment(extrapolate, exp::options_from_cli(cli));

    std::printf("\nExtrapolated maximum capacity (probe %.0f mA):\n",
                probe * 1000);
    for (std::size_t m = 0; m < caps.cell_count(); ++m) {
      std::printf("  %-11s %7.1f mAh\n", caps.grid().labels(m)[0].c_str(),
                  caps.mean(m, 0));
    }
    std::printf(
        "\nPaper anchors: 2000 mAh maximum capacity, ~1600 mAh nominal at "
        "full load (~1.8 A).\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
