#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/compare.hpp"
#include "battery/kibam.hpp"
#include "exp/factories.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using bas::exp::Job;
using bas::util::Rng;

/// Both lifetime cells (KiBaM and the stochastic cell, whose kinetics
/// default to the same parameters) are the paper's 2000 mAh NiMH.
const double kRatedMah =
    bas::bat::to_mah(bas::bat::KibamParams::paper_aaa_nimh().capacity_c);

/// Simulates one scheme with the traced-run hooks installed when the
/// probe carries totals. `battery` may be null (energy-only runs).
bas::sim::SimResult simulate(const bas::tg::TaskGraphSet& set,
                             const bas::dvs::Processor& proc,
                             bas::core::Scheme scheme,
                             bas::sim::SimConfig config,
                             std::unique_ptr<bas::bat::Battery> battery,
                             JobProbe& probe) {
  const TimedBattery* timed = nullptr;
  if (probe.totals != nullptr) {
    config.record_perf_counters = true;
    instrument(scheme, probe.totals);
    if (battery) {
      auto proxy =
          std::make_unique<TimedBattery>(std::move(battery), probe.totals);
      timed = proxy.get();
      battery = std::move(proxy);
    }
  }
  std::optional<bas::sim::Simulator> sim;
  probe.time(Layer::kSimCtor, [&] { sim.emplace(set, proc, scheme, config); });
  auto result =
      probe.time(Layer::kSimRun, [&] { return sim->run(battery.get()); });
  if (probe.totals != nullptr) {
    probe.totals->absorb(result.perf);
    if (timed != nullptr) {
      probe.totals->k_exp_calls += timed->inner().kernel_counters().exp_calls;
    }
  }
  return result;
}

bas::tg::TaskGraphSet generate(const bas::scenario::ScenarioSpec& scn,
                               std::uint64_t seed, JobProbe& probe) {
  Rng rng(seed);
  auto set =
      probe.time(Layer::kTgff, [&] { return scn.make_workload(rng); });
  if (probe.totals != nullptr) {
    probe.totals->absorb(set);
  }
  return set;
}

/// Table 2's sweep (scheme x sets, run to battery death) on a preset:
/// the same job function as bench/table2_battery_lifetime.
Workload lifetime_workload(std::string name, const std::string& preset,
                           int sets, bool require_zero_misses) {
  const bas::scenario::ScenarioSpec scn = bas::scenario::scenario(preset);
  const bas::dvs::Processor proc = scn.make_processor();

  Workload w;
  w.name = std::move(name);
  w.grid.add("scheme", bas::exp::scheme_labels());
  w.metrics = {"delivered_mah", "lifetime_min", "energy_j", "misses"};
  w.lifetime_metric = 1;
  w.replicates = sets;
  w.run = [scn, proc](const Job& job, JobProbe& probe) {
    // Workload and actual-computation draws key off the replicate seed
    // only, so every scheme sees the same task-graph sets (CRN).
    const auto set = generate(scn, job.replicate_seed, probe);
    const auto config =
        scn.sim_config(Rng::hash_combine(job.replicate_seed, 1000u));
    const auto r = simulate(
        set, proc,
        bas::core::make_scheme(bas::exp::scheme_kind_at(job.at(0)),
                               proc.fmax_hz(), config.seed),
        config, scn.make_battery(), probe);
    return std::vector<double>{r.battery_delivered_mah,
                               r.battery_lifetime_s / 60.0, r.energy_j,
                               static_cast<double>(r.deadline_misses)};
  };
  w.check = [require_zero_misses](const std::vector<double>& m) {
    if (!(m[1] > 0.0) || !std::isfinite(m[1])) {
      return std::string("lifetime is not positive");
    }
    if (!(m[0] > 0.0) || m[0] > kRatedMah) {
      return std::string("delivered charge outside (0, rated capacity]");
    }
    if (require_zero_misses && m[3] != 0.0) {
      return std::string("deadline misses");
    }
    return std::string();
  };
  return w;
}

const std::vector<std::string> kOrderings{"near-opt", "random", "ltf",
                                          "pubs-imminent", "pubs-all"};

/// bench/fig6_ordering_schemes' four ordering schemes (index 1..4 of
/// kOrderings), all on laEDF.
bas::core::Scheme ordering_scheme(std::size_t which, double fmax_hz,
                                  std::uint64_t seed) {
  using namespace bas;
  switch (which) {
    case 1:
      return core::make_custom_scheme(
          "Random", dvs::make_la_edf(fmax_hz),
          sched::make_random_priority(seed), sched::make_history_estimator(),
          core::ReadyScope::kMostImminent);
    case 2:
      return core::make_custom_scheme(
          "LTF", dvs::make_la_edf(fmax_hz), sched::make_ltf_priority(),
          sched::make_history_estimator(), core::ReadyScope::kMostImminent);
    case 3:
      return core::make_custom_scheme(
          "pUBS/imminent", dvs::make_la_edf(fmax_hz),
          sched::make_pubs_priority(), sched::make_history_estimator(),
          core::ReadyScope::kMostImminent);
    default:
      return core::make_custom_scheme(
          "pUBS/all", dvs::make_la_edf(fmax_hz), sched::make_pubs_priority(),
          sched::make_history_estimator(), core::ReadyScope::kAllReleased);
  }
}

/// Figure 6 with one job per (graph count, scheme, set): the near-optimal
/// reference is a job of its own, so ratios are formed after the merge.
Workload fig6_workload(int sets) {
  bas::scenario::ScenarioSpec base = bas::scenario::scenario("paper-fig6");
  base.sim.horizon_s = 60.0;
  base.sim.drain = true;
  const bas::dvs::Processor proc = base.make_processor();

  Workload w;
  w.name = "fig6-energy";
  w.grid.add("taskgraphs", {"2", "4", "6", "8", "10"});
  w.grid.add("scheme", kOrderings);
  w.metrics = {"energy_j"};
  w.replicates = sets;
  w.use_store = true;
  w.run = [base, proc](const Job& job, JobProbe& probe) {
    const int graphs = 2 + 2 * static_cast<int>(job.at(0));
    // Every scheme of one (graph count, set) shares the workload and the
    // actual-computation draws (CRN), as the figure's ratios need.
    const std::uint64_t key = Rng::hash_combine(
        job.replicate_seed, static_cast<std::uint64_t>(graphs));
    auto scn = base;
    scn.workload.graph_count = graphs;
    const auto set = generate(scn, key, probe);
    const auto config = scn.sim_config(Rng::hash_combine(key, 555u));
    if (job.at(1) == 0) {
      return std::vector<double>{probe.time(Layer::kNearOpt, [&] {
        return bas::analysis::near_optimal_energy_j(set, proc, config);
      })};
    }
    const auto r =
        simulate(set, proc, ordering_scheme(job.at(1), proc.fmax_hz(),
                                            config.seed),
                 config, nullptr, probe);
    return std::vector<double>{r.energy_j};
  };
  w.check = [](const std::vector<double>& m) {
    return m[0] > 0.0 && std::isfinite(m[0]) ? std::string()
                                             : std::string("energy is not "
                                                           "positive");
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"table2-kibam",
                                              "idle-stochastic",
                                              "fig6-energy"};
  return names;
}

Workload make_workload(const std::string& name, Size size) {
  const bool smoke = size == Size::kSmoke;
  if (name == "table2-kibam") {
    Workload w = lifetime_workload(name, "paper-table2", smoke ? 4 : 100,
                                   /*require_zero_misses=*/true);
    // The paper's Table 2 (bench/table2_battery_lifetime.cpp header).
    w.paper_lifetime_min = {74.0, 101.0, 120.0, 137.0, 148.0};
    return w;
  }
  if (name == "idle-stochastic") {
    return lifetime_workload(name, "idle-heavy", smoke ? 2 : 20,
                             /*require_zero_misses=*/false);
  }
  if (name == "fig6-energy") {
    return fig6_workload(smoke ? 2 : 40);
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (known: table2-kibam, idle-stochastic, "
                              "fig6-energy)");
}

}  // namespace perfbench
