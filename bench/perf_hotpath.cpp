// The exact work-counter gate (ctest perf_counter_gate). It runs every
// (scenario x scheme x battery) cell below for --sets replicates and
// compares each cell's deterministic sim::PerfCounters totals against
// the tracked baseline. It reads no clock: time is measured end to end
// with perfbench pairs (bench/ab_compare.sh), work here.
//
// Workload seeds depend only on (--seed, rep), so every cell of one
// rep simulates the same task-graph sets, and the counters are
// bit-deterministic for a given (--seed, --sets).
//
// One file-local field list, kFields, names the 11 sim::PerfCounters
// fields this binary reports: the hot-path lanes, then the battery
// kernel's k_* counters. Each cell sums them over its reps, and the
// JSON and the gate iterate the list. The JSON (schema "bas-perf/9",
// documented in EXPERIMENTS.md, "Performance") writes each cell flat:
// its three labels, sims, then the kFields counters in list order.
//
//   ./perf_hotpath --baseline ../bench/perf_baseline.json
//   ./perf_hotpath --write-baseline ../bench/perf_baseline.json
//   ./perf_hotpath --trace-out trace.json
//
// With --baseline, the run fails (exit 1) unless every run cell exists
// in the baseline file, sims and every kFields counter of the cell
// equal the baseline's values exactly, and the baseline cell holds no
// key this binary does not write. A mismatch means the work changed:
// if that is intended, regenerate the baseline with --write-baseline
// in the same change. --trace-out FILE writes a Chrome-trace JSON of
// one extra rep of the first cell for Perfetto / chrome://tracing.
// A baseline of another schema or another (--sets, --seed), an
// unreadable baseline file or an unknown axis label exits 2, like any
// rejected input (exp::run_main).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/experiment.hpp"
#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bas;

constexpr const char* kSchema = "bas-perf/9";

struct Cell {
  std::string scenario;
  std::string scheme;
  std::string battery;

  std::string label() const { return scenario + "/" + scheme + "/" + battery; }
};

/// One cell's totals over its reps.
struct CellResult {
  Cell cell;
  std::uint64_t sims = 0;
  sim::PerfCounters perf;
};

/// A reported sim::PerfCounters field: its bas-perf/9 key and the
/// member it reads (mutable, so the per-rep sums write through it).
struct Field {
  const char* name;
  std::uint64_t& (*get)(sim::PerfCounters&);
};

// The key is the member's name, k_-prefixed for the kernel counters,
// so a key cannot drift from the field it reads.
#define LANE(m) {#m, [](sim::PerfCounters& p) -> auto& { return p.m; }}
#define KERNEL(m) \
  {"k_" #m, [](sim::PerfCounters& p) -> auto& { return p.kernel.m; }}

/// Every counter the JSON writes and the gate checks after `sims`, in
/// bas-perf/9 cell order.
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

/// Everything one replicate of one cell simulates. Same seeding
/// contract as the campaign drivers: the workload and sim seeds depend
/// only on the replicate, never on the cell.
struct Rep {
  tg::TaskGraphSet set;
  dvs::Processor proc;
  core::SchemeKind kind;
  sim::SimConfig config;
  std::unique_ptr<bat::Battery> battery;

  sim::SimResult run() const {
    return sim::simulate_scheme(set, proc, kind, config, battery.get());
  }
};

Rep make_rep(const Cell& cell, std::uint64_t seed, int rep) {
  const auto& scn = scenario::scenario(cell.scenario);
  const std::uint64_t rep_seed =
      util::Rng::hash_combine(seed, static_cast<std::uint64_t>(rep));
  util::Rng rng(rep_seed);
  auto set = scn.make_workload(rng);
  return Rep{std::move(set), scn.make_processor(),
             exp::scheme_kind_at(exp::scheme_index(cell.scheme)),
             scn.sim_config(util::Rng::hash_combine(rep_seed, 1000u)),
             scenario::make_battery(cell.battery)};
}

/// Runs `sets` reps of `cell` and adds each rep's counters into the
/// cell's totals.
CellResult count_cell(const Cell& cell, int sets, std::uint64_t seed) {
  CellResult out{cell, 0, {}};
  for (int rep = 0; rep < sets; ++rep) {
    Rep r = make_rep(cell, seed, rep);
    r.config.record_perf_counters = true;
    auto result = r.run();
    ++out.sims;
    for (const auto& field : kFields) {
      field.get(out.perf) += field.get(result.perf);
    }
  }
  return out;
}

/// One extra rep 0 of `cell` with the Chrome-trace sink attached:
/// execution-slice spans and release / completion instants on the
/// sim-time tracks. Load the file in Perfetto or chrome://tracing.
void write_direct_trace(const Cell& cell, std::uint64_t seed,
                        const std::string& path) {
  Rep r = make_rep(cell, seed, 0);
  r.config.record_trace = true;  // per-slice accounting, no battery merging
  obs::TraceLog log;
  log.name_process(obs::kSimPid, "sim: " + cell.label());
  r.config.trace_log = &log;
  r.run();
  log.write(path);
  std::printf("\nwrote trace %s (%zu events)\n", path.c_str(), log.size());
}

/// One cell as a flat JSON object on one line, which the baseline
/// loader reads line by line.
std::string cell_json(const CellResult& r) {
  std::ostringstream out;
  out << "{\"scenario\": \"" << r.cell.scenario << "\", \"scheme\": \""
      << r.cell.scheme << "\", \"battery\": \"" << r.cell.battery
      << "\", \"sims\": " << r.sims;
  auto perf = r.perf;  // the accessors take a mutable PerfCounters
  for (const auto& field : kFields) {
    out << ", \"" << field.name << "\": " << field.get(perf);
  }
  out << "}";
  return out.str();
}

std::string to_json(const std::vector<CellResult>& results, int sets,
                    std::uint64_t seed) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n";
  out << "  \"sets\": " << sets << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    " << cell_json(results[i])
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------
// Baseline file handling. The file is this binary's own JSON output: a
// header plus one flat object per line, and no value holds a quote,
// comma or brace, so a line splits into its fields without a parser.

using Fields = std::map<std::string, std::string>;

/// The `"key": value` pairs of one line, string values unquoted.
Fields read_fields(const std::string& line) {
  Fields fields;
  auto open = line.find('"');
  while (open != std::string::npos) {
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) {
      break;
    }
    if (line.compare(close + 1, 2, ": ") != 0) {
      open = line.find('"', close + 1);
      continue;
    }
    const auto start = close + 3;
    const auto end = line.find_first_of(",}", start);
    std::string value = line.substr(start, end - start);
    if (value.size() >= 2 && value.front() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    fields[line.substr(open + 1, close - open - 1)] = std::move(value);
    open = line.find('"', end);
  }
  return fields;
}

/// Baseline cells keyed by Cell::label(), after checking the header: an
/// old schema, or a baseline recorded at another (--sets, --seed),
/// would compare different work, so both fail loudly up front.
std::map<std::string, Fields> load_baseline(const std::string& path, int sets,
                                            std::uint64_t seed) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("cannot open baseline file '" + path + "'");
  }
  Fields header;
  std::map<std::string, Fields> cells;
  for (std::string line; std::getline(file, line);) {
    auto fields = read_fields(line);
    if (fields.count("scenario") == 0) {
      header.merge(fields);
      continue;
    }
    const Cell cell{fields["scenario"], fields["scheme"], fields["battery"]};
    cells[cell.label()] = std::move(fields);
  }

  const std::string schema = header["schema"];
  if (schema != kSchema) {
    throw std::invalid_argument(
        "baseline file '" + path + "' has schema '" +
        (schema.empty() ? "<missing>" : schema) + "' but this binary reads '" +
        kSchema + "' — regenerate with --write-baseline");
  }
  if (header["sets"] != std::to_string(sets) ||
      header["seed"] != std::to_string(seed)) {
    throw std::invalid_argument(
        "baseline file '" + path + "' was not recorded at --sets " +
        std::to_string(sets) + " --seed " + std::to_string(seed) +
        " — rerun with its settings or regenerate with --write-baseline");
  }
  return cells;
}

/// The exact counter gate. Returns the number of failed checks: a run
/// cell missing from the baseline, a counter (sims or a kFields entry)
/// whose value differs from (or is absent in) the baseline, or a
/// baseline key the run's cell does not write.
int check_against_baseline(const std::vector<CellResult>& results,
                           const std::map<std::string, Fields>& baseline) {
  int failures = 0;
  std::size_t counters = 0;
  for (const auto& r : results) {
    const std::string label = r.cell.label();
    const auto cell = baseline.find(label);
    if (cell == baseline.end()) {
      std::printf("baseline: cell %s is missing from the baseline — "
                  "regenerate with --write-baseline\n",
                  label.c_str());
      ++failures;
      continue;
    }
    const Fields& expected = cell->second;
    auto check = [&](const char* name, std::uint64_t value) {
      ++counters;
      const auto it = expected.find(name);
      const std::string run = std::to_string(value);
      if (it != expected.end() && it->second == run) {
        return;
      }
      ++failures;
      std::printf("baseline: cell %s counter %s = %s, baseline %s — the "
                  "work changed; if intended, regenerate with "
                  "--write-baseline\n",
                  label.c_str(), name, run.c_str(),
                  it != expected.end() ? it->second.c_str() : "<missing>");
    };
    check("sims", r.sims);
    auto perf = r.perf;  // the accessors take a mutable PerfCounters
    for (const auto& field : kFields) {
      check(field.name, field.get(perf));
    }
    const Fields written = read_fields(cell_json(r));
    for (const auto& entry : expected) {
      if (written.count(entry.first) == 0) {
        ++failures;
        std::printf("baseline: cell %s counter %s is in the baseline but "
                    "not reported by this binary — regenerate with "
                    "--write-baseline\n",
                    label.c_str(), entry.first.c_str());
      }
    }
  }
  std::printf("baseline: %zu cell(s), %zu counter(s) checked\n",
              results.size(), counters);
  return failures;
}

/// Comma-separated axis override, each item validated eagerly.
template <class Validate>
void override_axis(const std::string& value, std::vector<std::string>* axis,
                   Validate validate) {
  if (value.empty()) {
    return;
  }
  axis->clear();
  std::stringstream ss(value);
  for (std::string item; std::getline(ss, item, ',');) {
    validate(item);
    axis->push_back(item);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bas;
  const std::map<std::string, std::string> defaults{
      {"sets", "2"}, {"seed", "1234"}, {"baseline", ""},
      {"write-baseline", ""}, {"trace-out", ""}, {"scenarios", ""},
      {"schemes", ""}, {"batteries", ""}};
  return exp::run_main(argc, argv, defaults, [](util::Cli& cli) {
    // The dense cell (paper-table2) stresses the decision loop; the
    // sparse one (idle-heavy) stresses the battery merge windows.
    std::vector<std::string> scenarios{"paper-table2", "idle-heavy"};
    std::vector<std::string> schemes{"EDF", "laEDF", "BAS-2"};
    std::vector<std::string> batteries{"kibam", "diffusion", "stochastic"};
    override_axis(cli.get("scenarios"), &scenarios,
                  [](const std::string& s) { scenario::scenario(s); });
    override_axis(cli.get("schemes"), &schemes,
                  [](const std::string& s) { exp::scheme_index(s); });
    override_axis(cli.get("batteries"), &batteries,
                  [](const std::string& s) { scenario::make_battery(s); });
    const int sets = static_cast<int>(cli.get_int("sets"));
    const std::uint64_t seed = cli.get_u64("seed");

    util::print_banner("Hot-path work counters");
    std::printf("config: %s\n%d set(s) per cell\n\n", cli.summary().c_str(),
                sets);

    std::vector<CellResult> results;
    for (const auto& scenario : scenarios) {
      for (const auto& battery : batteries) {
        for (const auto& scheme : schemes) {
          results.push_back(
              count_cell({scenario, scheme, battery}, sets, seed));
        }
      }
    }
    if (const auto path = cli.get("trace-out"); !path.empty()) {
      write_direct_trace(results.front().cell, seed, path);
    }

    auto count = [](std::uint64_t v) {
      return util::Table::num(static_cast<long long>(v));
    };
    util::Table table({"scenario", "scheme", "battery", "sims", "steps",
                       "draws", "advances", "scored/step", "grows"});
    for (const auto& r : results) {
      const auto& p = r.perf;
      table.add_row(
          {r.cell.scenario, r.cell.scheme, r.cell.battery, count(r.sims),
           count(p.steps), count(p.battery_draws),
           count(p.battery_interval_advances),
           util::Table::num(p.steps > 0
                                ? static_cast<double>(p.candidates_scored) /
                                      static_cast<double>(p.steps)
                                : 0.0,
                            2),
           count(p.scratch_grows)});
    }
    table.print();

    // Per-kernel counter table. slot xfer/slots is the stochastic
    // kernel's share of slots that moved a quantum.
    std::printf("\nper-kernel battery counters:\n");
    util::Table ktable({"scenario", "scheme", "battery", "exp_calls",
                        "slot xfer/slots"});
    for (const auto& r : results) {
      const auto& k = r.perf.kernel;
      ktable.add_row({r.cell.scenario, r.cell.scheme, r.cell.battery,
                      count(k.exp_calls),
                      count(k.slot_transfers) + "/" + count(k.slots)});
    }
    ktable.print();

    if (const auto path = cli.get("write-baseline"); !path.empty()) {
      std::ofstream out(path);
      if (!out) {
        throw std::invalid_argument("cannot open '" + path +
                                    "' for writing");
      }
      out << to_json(results, sets, seed);
      std::printf("\nwrote %s\n", path.c_str());
    }

    if (const auto path = cli.get("baseline"); !path.empty()) {
      std::printf("\n");
      const int failures = check_against_baseline(
          results, load_baseline(path, sets, seed));
      if (failures > 0) {
        std::printf("baseline gate failed (%d failing check(s))\n", failures);
        return 1;
      }
      std::printf("baseline gate passed (every counter equal)\n");
    }
    return 0;
  });
}
