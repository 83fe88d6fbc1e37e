// Scheduling Guideline 1 (paper §3): "A non-increasing discharge current
// profile is optimal for maximizing battery lifetime."
//
// The guideline is a statement about serving a fixed demand: among all
// orders of the same current segments, the non-increasing one leaves the
// battery in the best state (equivalently: if any order avoids cutoff,
// the non-increasing order does). This bench serves one identical-demand
// staircase pass in three arrangements — non-increasing, zig-zag,
// non-decreasing — then drains whatever is left at a high rate (no recovery window), and
// reports the total extractable charge per arrangement. Models with
// recovery dynamics (KiBaM, diffusion, stochastic) reward the guideline;
// the ideal bucket cannot distinguish the orders, and Peukert (no
// recovery, only rate penalty) is nearly indifferent too.
//
// The battery ladder comes from the scenario registry's battery axis
// (scenario::battery_labels), so the bench can never drift from the models
// the lifetime scenarios use. The (model) sweep runs on the experiment
// engine: one job per battery model evaluates all three arrangements on
// private instances, so the bench speaks the shared campaign interface
// (--jobs/--csv/--cache). For the matching *workload* stress —
// schemes compared where profile shape decides the gap — see the
// `paper-guideline1` scenario in the gallery.

#include <cstdio>
#include <vector>

#include "battery/lifetime.hpp"
#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

double pass_and_drain_mah(bas::bat::Battery& battery,
                          const bas::bat::LoadProfile& pass,
                          double drain_current_a) {
  pass.discharge_into(battery);
  if (!battery.empty()) {
    bas::bat::LoadProfile::constant(drain_current_a, 100.0)
        .discharge_repeating(battery, 1e7);
  }
  return battery.charge_delivered_mah();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bas;
  const auto defaults = util::Cli::with_bench_defaults(
      {{"step-min", "12"}, {"drain", "2.5"}});
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const double step_s = cli.get_double("step-min") * 60.0;
    const double drain_a = cli.get_double("drain");

    // One staircase: 1.8 A down to 0.3 A in 6 steps of `step_s` each —
    // 6.3 A-steps of demand, ~4500 C at the default step, inside the
    // 7200 C capacity so every arrangement completes the pass.
    const std::vector<double> levels{1.8, 1.5, 1.2, 0.9, 0.6, 0.3};

    bat::LoadProfile decreasing;
    for (double i : levels) {
      decreasing.add(step_s, i);
    }
    const bat::LoadProfile increasing = decreasing.reversed();
    bat::LoadProfile zigzag;
    for (std::size_t k = 0; k < levels.size(); ++k) {
      // 1.8, 0.3, 1.5, 0.6, 1.2, 0.9 — same multiset of levels.
      zigzag.add(step_s, k % 2 == 0 ? levels[k / 2]
                                    : levels[levels.size() - 1 - k / 2]);
    }

    util::print_banner(
        "Guideline 1: equal-demand staircase order vs total extractable "
        "charge");
    std::printf(
        "staircase of %zu levels x %.0f min (%.0f C demand), then drained at "
        "%.1f A\n\n",
        levels.size(), step_s / 60.0,
        decreasing.total_charge_c(), drain_a);

    exp::ExperimentSpec spec;
    spec.title = "guideline1_profile_shape";
    spec.config = cli.config_summary();
    spec.grid = exp::Grid{std::vector<exp::Axis>{exp::battery_axis()}};
    spec.metrics = {"non_increasing_mah", "zigzag_mah", "non_decreasing_mah",
                    "gain_pct"};
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      const auto& label = scenario::battery_labels()[job.at(0)];
      const double down =
          pass_and_drain_mah(*scenario::make_battery(label), decreasing,
                             drain_a);
      const double mix =
          pass_and_drain_mah(*scenario::make_battery(label), zigzag, drain_a);
      const double up =
          pass_and_drain_mah(*scenario::make_battery(label), increasing,
                             drain_a);
      return {down, mix, up, 100.0 * (down / up - 1.0)};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    util::Table table({"model", "non-increasing mAh", "zig-zag mAh",
                       "non-decreasing mAh", "guideline gain"});
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
      table.add_row({result.grid().labels(c)[0],
                     util::Table::num(result.mean(c, 0), 1),
                     util::Table::num(result.mean(c, 1), 1),
                     util::Table::num(result.mean(c, 2), 1),
                     util::Table::num(result.mean(c, 3), 2) + "%"});
    }
    table.print();
    std::printf(
        "\nShape check: the kinetic family (kibam/diffusion/stochastic) "
        "extracts the most charge under the non-increasing order; ideal and "
        "Peukert are (near-)indifferent.\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
