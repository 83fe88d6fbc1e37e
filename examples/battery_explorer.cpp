// Battery model explorer: how much extra charge does resting between
// pulses buy? A pulse train (--pulse A for --on s, rest --off s) runs
// for --cycles cycles on the KiBaM and diffusion cells, then drains
// whatever is left at the pulse current; the sweep varies the rest
// duration and reports the total extractable charge per model — the
// recovery effect the paper's §3 figures build intuition for, priced on
// the experiment engine (--jobs/--csv/--cache all work).
//
//   $ ./build/examples/battery_explorer
//   $ ./build/examples/battery_explorer --pulse 2.5 --cycles 20
//
// Pass --trace to additionally print the internal state trajectory
// (two wells, bound charge, recovery while idle) for the --off rest.
//
//   $ ./build/examples/battery_explorer --trace --off 120

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "battery/diffusion.hpp"
#include "battery/kibam.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace bas;

/// Pulse train then full drain; returns total delivered charge (mAh).
double train_and_drain_mah(bat::Battery& battery, double pulse_a, double on_s,
                           double off_s, int cycles) {
  for (int c = 0; c < cycles && !battery.empty(); ++c) {
    battery.draw(pulse_a, on_s);
    if (off_s > 0.0 && !battery.empty()) {
      battery.draw(0.0, off_s);
    }
  }
  // A zero pulse can never empty the cell, and recovery could stretch a
  // tiny one almost indefinitely — bound the drain at ~4 months.
  double drained_s = 0.0;
  while (pulse_a > 0.0 && !battery.empty() && drained_s < 1e7) {
    drained_s += 60.0;
    battery.draw(pulse_a, 60.0);
  }
  return battery.charge_delivered_mah();
}

void print_trace(double pulse_a, double on_s, double off_s, int cycles) {
  // The registry builds the same calibrated cells the sweeps use; the
  // concrete types expose the internal wells the trajectory shows.
  const auto kibam_cell = scenario::make_battery("kibam");
  const auto diffusion_cell = scenario::make_battery("diffusion");
  auto& kibam = dynamic_cast<bat::KibamBattery&>(*kibam_cell);
  auto& diffusion = dynamic_cast<bat::DiffusionBattery&>(*diffusion_cell);

  std::printf(
      "\npulse train: %.2f A for %.0f s, rest %.0f s, %d cycles\n"
      "KiBaM: available/bound wells (C); diffusion: drawn/unavailable "
      "(C)\n\n",
      pulse_a, on_s, off_s, cycles);
  std::printf(
      "%8s  %10s %10s %7s  |  %10s %12s %7s\n", "t (s)", "available",
      "bound", "dead", "drawn", "unavailable", "dead");

  auto report = [&](double t) {
    std::printf("%8.0f  %10.1f %10.1f %7s  |  %10.1f %12.1f %7s\n", t,
                kibam.available_c(), kibam.bound_c(),
                kibam.empty() ? "DEAD" : "", diffusion.charge_delivered_c(),
                diffusion.unavailable_c(), diffusion.empty() ? "DEAD" : "");
  };

  double t = 0.0;
  report(t);
  for (int c = 0; c < cycles && !kibam.empty(); ++c) {
    kibam.draw(pulse_a, on_s);
    diffusion.draw(pulse_a, on_s);
    t += on_s;
    report(t);
    if (kibam.empty() || diffusion.empty()) {
      break;
    }
    kibam.draw(0.0, off_s);
    diffusion.draw(0.0, off_s);
    t += off_s;
    report(t);
  }

  std::printf(
      "\nDuring each rest the available well refills from the bound well\n"
      "(KiBaM) and the unavailable charge decays (diffusion) — the\n"
      "recovery effect. When the available well empties, charge is still\n"
      "trapped in the bound well: that is what battery-aware scheduling\n"
      "rescues.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto defaults =
      util::Cli::with_bench_defaults({{"pulse", "1.8"},
                                      {"on", "120"},
                                      {"off", "120"},
                                      {"cycles", "12"},
                                      {"trace", "false"}});
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const double pulse_a = cli.get_double("pulse");
    const double on_s = cli.get_double("on");
    const int cycles = static_cast<int>(cli.get_int("cycles"));

    const std::vector<double> rests{0.0, 30.0, 60.0, 120.0, 240.0, 480.0};
    std::vector<std::string> rest_labels;
    for (const double rest : rests) {
      rest_labels.push_back(util::Table::num(rest, 0));
    }

    util::print_banner(
        "Battery explorer: rest duration vs total extractable charge");

    exp::ExperimentSpec spec;
    spec.title = "battery_explorer";
    spec.config = cli.config_summary();
    spec.grid.add("rest_s", rest_labels);
    spec.metrics = {"kibam_mah", "diffusion_mah"};
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      const double off_s = rests[job.at(0)];
      const auto kibam = scenario::make_battery("kibam");
      const auto diffusion = scenario::make_battery("diffusion");
      return {train_and_drain_mah(*kibam, pulse_a, on_s, off_s, cycles),
              train_and_drain_mah(*diffusion, pulse_a, on_s, off_s, cycles)};
    };
    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    util::Table table({"rest (s)", "kibam (mAh)", "diffusion (mAh)",
                       "kibam gain vs no rest"});
    const double base = result.mean(0, 0);
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
      std::string gain = "n/a";  // a zero-pulse sweep delivers nothing
      if (base > 0.0) {
        const double gain_pct = 100.0 * (result.mean(c, 0) / base - 1.0);
        gain = std::string(gain_pct >= 0.0 ? "+" : "") +
               util::Table::num(gain_pct, 2) + "%";
      }
      table.add_row(
          {result.grid().labels(c)[0], util::Table::num(result.mean(c, 0), 1),
           util::Table::num(result.mean(c, 1), 1), gain});
    }
    table.print();
    std::printf(
        "\nLonger rests let the two-well models equalize, so the same cell "
        "delivers more of its charge — the headroom battery-aware "
        "scheduling plays for.\n");

    exp::write_csv_option(cli, result);
    if (cli.get_flag("trace")) {
      print_trace(pulse_a, on_s, cli.get_double("off"), cycles);
    }
    return 0;
  });
}
