// Scheduling Guideline 2 (paper §3): "Given a task t to be executed
// before a deadline d it is better to lower the frequency and execute
// the task than to leave an idle slot and execute at a higher
// frequency."
//
// A task of C cycles must finish within a window of length W. Strategy A
// stretches: run at f = C / W the whole window. Strategy B idles first
// for a fraction of the window, then sprints at the frequency that still
// meets the deadline. Energy grows ~quadratically with the sprint
// frequency while the idle slot saves only the (tiny) idle current, so
// stretching must win on charge consumed per job — and therefore on
// battery lifetime when the pattern repeats.
//
// The platform (processor + battery cell) comes from the scenario
// registry — by default the paper's `paper-table2` pairing; try
// `--scenario sensor-node` or `--scenario.battery=diffusion` to price
// the same trade on another world. The (idle fraction) sweep runs on
// the experiment engine: infeasible fractions (sprint above fmax) are
// filtered out of the axis up front, and each job prices one fraction
// on its own battery instance — so the bench speaks the shared campaign
// interface (--jobs/--csv/--cache).

#include <cstdio>
#include <string>
#include <vector>

#include "battery/lifetime.hpp"
#include "dvs/realizer.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bas;
  const auto defaults =
      util::Cli::with_bench_defaults(scenario::with_scenario_defaults(
          {{"window", "1.0"}, {"cycles", "5e8"}}, "paper-table2"));
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const double window_s = cli.get_double("window");
    const double cycles = cli.get_double("cycles");

    const auto scn = scenario::from_cli(cli);
    const auto proc = scn.make_processor();

    util::print_banner("Guideline 2: stretch-to-deadline vs idle-then-sprint");
    std::printf(
        "job: %.2e cycles every %.1f s on the '%s' processor with a %s "
        "cell\n\n",
        cycles, window_s, scn.processor.c_str(), scn.battery.c_str());

    // Only the idle fractions whose sprint frequency is realizable make it
    // onto the axis — the hand-rolled loop used to `break` here.
    std::vector<double> idle_fracs;
    std::vector<std::string> idle_labels;
    for (double idle_frac : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
      const double fref = cycles / (window_s * (1.0 - idle_frac));
      if (fref > proc.fmax_hz() * (1.0 + 1e-9)) {
        break;  // deadline no longer reachable
      }
      idle_fracs.push_back(idle_frac);
      idle_labels.push_back(util::Table::num(idle_frac, 1));
    }
    if (idle_fracs.empty()) {
      std::printf(
          "no feasible idle fraction: %.2e cycles in %.1f s needs %.3f GHz, "
          "above the processor's maximum\n",
          cycles, window_s, cycles / window_s / 1e9);
      return 0;
    }

    exp::ExperimentSpec spec;
    spec.title = "guideline2_idle_vs_stretch";
    spec.config = cli.config_summary() + " | " + scn.fingerprint();
    spec.grid.add("idle_frac", idle_labels);
    spec.metrics = {"sprint_freq_ghz", "charge_per_job_c", "energy_per_job_j",
                    "lifetime_min", "jobs_completed"};
    spec.run = [&](const exp::Job& job) -> std::vector<double> {
      const double idle_frac = idle_fracs[job.at(0)];
      const double exec_window = window_s * (1.0 - idle_frac);
      const double fref = cycles / exec_window;
      const auto plan = dvs::realize(proc, fref);

      bat::LoadProfile period;
      // Higher point first within the execution slot (Guideline 1), then
      // the idle tail.
      const double exec_s = cycles / plan.effective_freq_hz;
      period.add(plan.hi_fraction * exec_s, proc.battery_current_a(plan.hi));
      if (plan.hi_fraction < 1.0) {
        period.add((1.0 - plan.hi_fraction) * exec_s,
                   proc.battery_current_a(plan.lo));
      }
      const double idle_s = window_s - exec_s;
      if (idle_s > 0.0) {
        period.add(idle_s, proc.idle_current_a());
      }

      const double energy_per_job =
          exec_s * (plan.hi_fraction * proc.core_power_w(plan.hi) +
                    (1.0 - plan.hi_fraction) * proc.core_power_w(plan.lo));
      const auto battery = scn.make_battery();
      const auto life = bat::lifetime_under_profile(*battery, period);
      return {plan.effective_freq_hz / 1e9, period.total_charge_c(),
              energy_per_job, life.lifetime_min(),
              static_cast<double>(
                  static_cast<long long>(life.lifetime_s / window_s))};
    };

    const auto result = exp::run_experiment(spec, exp::options_from_cli(cli));

    util::Table table({"idle fraction", "sprint freq (GHz)", "charge/job (C)",
                       "energy/job (J)", "battery life (min)",
                       "jobs completed"});
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
      table.add_row({result.grid().labels(c)[0],
                     util::Table::num(result.mean(c, 0), 3),
                     util::Table::num(result.mean(c, 1), 3),
                     util::Table::num(result.mean(c, 2), 3),
                     util::Table::num(result.mean(c, 3), 1),
                     util::Table::num(static_cast<long long>(
                         result.mean(c, 4)))});
    }
    table.print();
    std::printf(
        "\nShape check: idle fraction 0 (pure stretching) minimizes charge "
        "per job and maximizes lifetime and jobs completed.\n");

    exp::write_csv_option(cli, result);
    return 0;
  });
}
