// The exact work-counter gate (ctest perf_counter_gate). It runs every
// (scenario x battery x scheme) cell below for --sets replicates on the
// campaign runner and reports each cell's deterministic
// sim::PerfCounters through the --csv sink, one metric per kFields
// entry: `<counter>_sum` is the cell's total and `steps_count` its
// number of simulations. It reads no clock: time is measured end to
// end with perfbench pairs (bench/ab_compare.sh), work here.
//
// Workload seeds depend only on (--seed, replicate), so every cell of
// one replicate simulates the same task-graph sets, and the CSV is
// byte-identical for a given (--seed, --sets) at any thread count.
//
//   ./perf_hotpath --csv ../bench/perf_baseline.csv
//   ./perf_hotpath --trace-out trace.json
//
// tests/perf_gate_smoke.sh compares this CSV with the committed
// bench/perf_baseline.csv byte for byte. A difference means the work
// changed: if that is intended, regenerate the baseline (first line
// above) in the same change. --trace-out FILE writes a Chrome-trace
// JSON of one extra replicate of the first cell for Perfetto /
// chrome://tracing. An unknown axis label exits 2, like any rejected
// input (exp::run_main).

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bas;

/// A reported sim::PerfCounters field: its metric name and the member
/// it reads.
struct Field {
  const char* name;
  std::uint64_t (*get)(const sim::PerfCounters&);
};

// The name is the member's name, k_-prefixed for the kernel counters,
// so a metric cannot drift from the field it reads.
#define LANE(m) {#m, [](const sim::PerfCounters& p) { return p.m; }}
#define KERNEL(m) \
  {"k_" #m, [](const sim::PerfCounters& p) { return p.kernel.m; }}

/// Every counter the CSV reports, in column order.
constexpr Field kFields[] = {
    LANE(steps),
    LANE(battery_draws),
    LANE(battery_interval_advances),
    LANE(candidates_scored),
    LANE(scratch_grows),
    LANE(events_popped),
    LANE(ticks_skipped),
    LANE(edf_incremental_ops),
    KERNEL(exp_calls),
    KERNEL(slots),
    KERNEL(slot_transfers),
};

#undef LANE
#undef KERNEL

/// Simulates replicate `rep` of the cell labelled {scenario, battery,
/// scheme}. Same seeding contract as the campaign drivers: the workload
/// and sim seeds depend only on (seed, rep), never on the cell. With a
/// `trace` sink the run records per-slice accounting (no battery
/// merging) into it instead of counting work.
sim::SimResult simulate(const std::vector<std::string>& cell,
                        std::uint64_t seed, int rep, obs::TraceLog* trace) {
  const auto& scn = scenario::scenario(cell[0]);
  const std::uint64_t rep_seed =
      util::Rng::hash_combine(seed, static_cast<std::uint64_t>(rep));
  util::Rng rng(rep_seed);
  const auto set = scn.make_workload(rng);
  auto config = scn.sim_config(util::Rng::hash_combine(rep_seed, 1000u));
  config.record_perf_counters = trace == nullptr;
  config.record_trace = trace != nullptr;
  config.trace_log = trace;
  const auto battery = scenario::make_battery(cell[1]);
  return sim::simulate_scheme(set, scn.make_processor(),
                              exp::scheme_kind_at(exp::scheme_index(cell[2])),
                              config, battery.get());
}

/// One extra replicate 0 of `cell` with the Chrome-trace sink attached:
/// execution-slice spans and release / completion instants on the
/// sim-time tracks. Load the file in Perfetto or chrome://tracing.
void write_direct_trace(const std::vector<std::string>& cell,
                        std::uint64_t seed, const std::string& path) {
  obs::TraceLog log;
  log.name_process(obs::kSimPid,
                   "sim: " + cell[0] + "/" + cell[1] + "/" + cell[2]);
  simulate(cell, seed, 0, &log);
  log.write(path);
  std::printf("\nwrote trace %s (%zu events)\n", path.c_str(), log.size());
}

/// The labels of one axis: the comma-separated list of option `name`,
/// each item validated before any job runs, or `fallback` when unset.
template <class Validate>
std::vector<std::string> axis(const util::Cli& cli, const std::string& name,
                              std::vector<std::string> fallback,
                              Validate validate) {
  const std::string value = cli.get(name);
  if (value.empty()) {
    return fallback;
  }
  std::vector<std::string> labels;
  std::stringstream ss(value);
  for (std::string item; std::getline(ss, item, ',');) {
    validate(item);
    labels.push_back(item);
  }
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bas;
  const std::map<std::string, std::string> defaults{
      {"sets", "2"},       {"seed", "1234"},    {"csv", ""},
      {"trace-out", ""},   {"scenarios", ""},   {"schemes", ""},
      {"batteries", ""}};
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    const std::uint64_t seed = cli.get_u64("seed");
    exp::ExperimentSpec spec;
    spec.title = "perf_hotpath";
    // The dense scenario (paper-table2) stresses the decision loop; the
    // sparse one (idle-heavy) stresses the battery merge windows.
    spec.grid.add("scenario",
                  axis(cli, "scenarios", {"paper-table2", "idle-heavy"},
                       [](const std::string& s) { scenario::scenario(s); }));
    spec.grid.add(
        "battery",
        axis(cli, "batteries", {"kibam", "diffusion", "stochastic"},
             [](const std::string& s) { scenario::make_battery(s); }));
    spec.grid.add("scheme",
                  axis(cli, "schemes", {"EDF", "laEDF", "BAS-2"},
                       [](const std::string& s) { exp::scheme_index(s); }));
    for (const auto& field : kFields) {
      spec.metrics.push_back(field.name);
    }
    spec.replicates = cli.get_int("sets");
    spec.run = [&](const exp::Job& job) {
      const auto perf =
          simulate(spec.grid.labels(job.cell), seed, job.replicate, nullptr)
              .perf;
      std::vector<double> values;
      for (const auto& field : kFields) {
        values.push_back(static_cast<double>(field.get(perf)));
      }
      return values;
    };

    util::print_banner("Hot-path work counters");
    std::printf("config: %s\n%d set(s) per cell, mean per simulation\n\n",
                cli.summary().c_str(), spec.replicates);
    const auto result = exp::run_experiment(spec, /*jobs=*/0);
    result.table(0).print();
    if (const auto path = cli.get("trace-out"); !path.empty()) {
      write_direct_trace(spec.grid.labels(0), seed, path);
    }
    exp::write_csv_option(cli, result);
    return 0;
  });
}
