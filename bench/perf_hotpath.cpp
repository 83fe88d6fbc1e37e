// Hot-path performance benchmark and the exact work-counter gate:
// steps/sec, battery draws/sec and sims/sec per (scheme x scenario x
// battery) cell, plus a check of every deterministic counter against
// the tracked baseline (ctest perf_counter_gate).
//
// Timing wraps sim::simulate_scheme only — workload generation and
// result folding stay outside the clock — and every rep flips
// SimConfig::record_perf_counters so the rates are normalized by the
// *work actually performed* (scheduling steps, Battery::draw calls),
// not by wall time alone. Workload seeds depend only on (--seed, rep),
// so every cell of one rep times the same task-graph sets (CRN for
// perf: a cell ratio is a code ratio, not a workload ratio).
//
// Each cell is one obs::Metrics: the per-rep obs::fill counters summed
// with Metrics::add, plus the wall-clock elapsed_s and *_per_sec
// rates as gauges. BENCH_perf.json (schema "bas-perf/7", documented in
// EXPERIMENTS.md, "Performance") renders those entries flat, in
// registry order. The rates are machine-dependent and never gated; the
// counters are bit-deterministic for a given (--seed, --sets).
//
//   ./perf_hotpath --smoke                  # CI-sized cells, ~seconds
//   ./perf_hotpath --full                   # all schemes x batteries
//   ./perf_hotpath --smoke --baseline ../bench/perf_baseline.json
//   ./perf_hotpath --smoke --write-baseline ../bench/perf_baseline.json
//   ./perf_hotpath --smoke --trace-out trace.json
//
// With --baseline, the run fails (exit 1) unless every run cell exists
// in the baseline file and every counter entry of the cell equals the
// baseline's value exactly. A mismatch means the work changed: if that
// is intended, regenerate the baseline with --write-baseline in the
// same change. --trace-out FILE writes a Chrome-trace JSON of one
// extra, untimed rep of the first cell for Perfetto / chrome://tracing.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/experiment.hpp"
#include "exp/factories.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bas;

constexpr const char* kSchema = "bas-perf/7";

struct Cell {
  std::string scenario;
  std::string scheme;
  std::string battery;

  std::string label() const { return scenario + "/" + scheme + "/" + battery; }
};

struct CellResult {
  Cell cell;
  obs::Metrics metrics;
};

std::string fmt_rate(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", v);
  return buffer;
}

std::size_t scheme_index(const std::string& label) {
  const auto& labels = exp::scheme_labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) {
      return i;
    }
  }
  throw std::runtime_error("unknown scheme label '" + label + "'");
}

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
             exp::scheme_kind_at(scheme_index(cell.scheme)),
             scn.sim_config(util::Rng::hash_combine(rep_seed, 1000u)),
             exp::make_battery(cell.battery)};
}

/// Runs `sets` timed reps of `cell`: the clock wraps simulate_scheme
/// only, and each rep's counters are added into the cell's registry.
CellResult time_cell(const Cell& cell, int sets, std::uint64_t seed) {
  CellResult out{cell, {}};
  obs::Metrics& m = out.metrics;
  for (int rep = 0; rep < sets; ++rep) {
    Rep r = make_rep(cell, seed, rep);
    r.config.record_perf_counters = true;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = r.run();
    const auto t1 = std::chrono::steady_clock::now();
    obs::Metrics counters;
    obs::fill(counters, result.perf);
    m.add("sims", 1.0);
    for (const auto& entry : counters.entries()) {
      m.add(entry.name, entry.value, entry.kind);
    }
    m.add("elapsed_s", std::chrono::duration<double>(t1 - t0).count(),
          obs::MetricKind::kGauge);
  }
  const double elapsed = m.value("elapsed_s");
  auto rate = [&](const char* name, const char* counter) {
    m.set(name, elapsed > 0.0 ? m.value(counter) / elapsed : 0.0,
          obs::MetricKind::kGauge);
  };
  rate("steps_per_sec", "steps");
  rate("draws_per_sec", "battery_draws");
  rate("advances_per_sec", "battery_interval_advances");
  rate("sims_per_sec", "sims");
  return out;
}

/// One untimed rep 0 of `cell` with the Chrome-trace sink attached:
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

std::string to_json(const std::vector<CellResult>& results,
                    const std::string& mode, int sets, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"sets\": " << sets << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    // One flat object per line: the baseline loader chunks the file on
    // braces and bench/ab_compare.sh reads each cell with one sed line.
    out << "    {\"scenario\": \"" << r.cell.scenario << "\", \"scheme\": \""
        << r.cell.scheme << "\", \"battery\": \"" << r.cell.battery << "\"";
    for (const auto& entry : r.metrics.entries()) {
      out << ", \"" << entry.name << "\": " << obs::format_value(entry.value);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------
// Baseline file handling. The file is this binary's own JSON output: a
// header plus one flat object per line, so a `"key": ` scan of a brace
// chunk reads any field.

bool extract_string(const std::string& chunk, const std::string& key,
                    std::string* value) {
  const std::string needle = "\"" + key + "\": \"";
  const auto at = chunk.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const auto start = at + needle.size();
  const auto end = chunk.find('"', start);
  if (end == std::string::npos) {
    return false;
  }
  *value = chunk.substr(start, end - start);
  return true;
}

/// The `": `-anchored needle cannot match a longer key that starts with
/// `key` ("steps" never reads "steps_per_sec").
bool extract_number(const std::string& chunk, const std::string& key,
                    double* value) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = chunk.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const char* cursor = chunk.c_str() + at + needle.size();
  const double parsed = std::strtod(cursor, &end);
  if (end == cursor) {
    return false;
  }
  *value = parsed;
  return true;
}

/// Baseline cell chunks keyed by Cell::label(), after checking the
/// header: an old schema, or a baseline recorded at another
/// (--sets, --seed), would compare different work, so both fail loudly
/// up front.
std::map<std::string, std::string> load_baseline(const std::string& path,
                                                 int sets, std::uint64_t seed) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open baseline file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  std::string schema;
  if (!extract_string(text, "schema", &schema) || schema != kSchema) {
    throw std::runtime_error(
        "baseline file '" + path + "' has schema '" +
        (schema.empty() ? "<missing>" : schema) + "' but this binary reads '" +
        kSchema + "' — regenerate with --write-baseline");
  }
  double file_sets = 0.0;
  double file_seed = 0.0;
  if (!extract_number(text, "sets", &file_sets) ||
      !extract_number(text, "seed", &file_seed) ||
      file_sets != static_cast<double>(sets) ||
      file_seed != static_cast<double>(seed)) {
    throw std::runtime_error(
        "baseline file '" + path + "' was not recorded at --sets " +
        std::to_string(sets) + " --seed " + std::to_string(seed) +
        " — rerun with its settings or regenerate with --write-baseline");
  }

  std::map<std::string, std::string> cells;
  std::size_t at = 0;
  while ((at = text.find('{', at + 1)) != std::string::npos) {
    const auto end = text.find('}', at);
    if (end == std::string::npos) {
      break;
    }
    std::string chunk = text.substr(at, end - at);
    Cell cell;
    if (extract_string(chunk, "scenario", &cell.scenario) &&
        extract_string(chunk, "scheme", &cell.scheme) &&
        extract_string(chunk, "battery", &cell.battery)) {
      cells[cell.label()] = std::move(chunk);
    }
    at = end;
  }
  return cells;
}

/// The exact counter gate. Returns the number of failed checks: a run
/// cell missing from the baseline, or one counter of a cell whose value
/// differs from (or is absent in) the baseline. Gauges are not checked.
int check_against_baseline(const std::vector<CellResult>& results,
                           const std::map<std::string, std::string>& baseline) {
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
    for (const auto& entry : r.metrics.entries()) {
      if (entry.kind != obs::MetricKind::kCounter) {
        continue;
      }
      ++counters;
      double expected = 0.0;
      const bool found = extract_number(cell->second, entry.name, &expected);
      if (found && expected == entry.value) {
        continue;
      }
      ++failures;
      std::printf("baseline: cell %s counter %s = %s, baseline %s — the "
                  "work changed; if intended, regenerate with "
                  "--write-baseline\n",
                  label.c_str(), entry.name.c_str(),
                  obs::format_value(entry.value).c_str(),
                  found ? obs::format_value(expected).c_str() : "<missing>");
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
  try {
    util::Cli cli(argc, argv,
                  {{"smoke", "false"},
                   {"full", "false"},
                   {"sets", "3"},
                   {"seed", "1234"},
                   {"json", "BENCH_perf.json"},
                   {"baseline", ""},
                   {"write-baseline", ""},
                   {"trace-out", ""},
                   {"scenarios", ""},
                   {"schemes", ""},
                   {"batteries", ""}});

    // Dense cells (paper-table2, ippp-diurnal) stress the decision
    // loop; the sparse cells (idle-heavy, sporadic-sensor) stress the
    // battery merge windows.
    std::vector<std::string> scenarios{"paper-table2", "ippp-diurnal",
                                       "idle-heavy", "sporadic-sensor"};
    std::vector<std::string> schemes{"EDF", "laEDF", "BAS-2"};
    std::vector<std::string> batteries{"kibam", "diffusion", "stochastic"};
    int sets = static_cast<int>(cli.get_int("sets"));
    std::string mode = "default";
    if (cli.get_flag("smoke")) {
      mode = "smoke";
      scenarios = {"paper-table2", "idle-heavy"};
      sets = std::min(sets, 2);
    } else if (cli.get_flag("full")) {
      mode = "full";
      scenarios = {"paper-table2", "ippp-diurnal", "overload", "idle-heavy",
                   "sporadic-sensor"};
      schemes = exp::scheme_labels();
      batteries = exp::battery_labels();
    }
    override_axis(cli.get("scenarios"), &scenarios,
                  [](const std::string& s) { scenario::scenario(s); });
    override_axis(cli.get("schemes"), &schemes,
                  [](const std::string& s) { scheme_index(s); });
    override_axis(cli.get("batteries"), &batteries,
                  [](const std::string& s) { scenario::make_battery(s); });
    const std::uint64_t seed = cli.get_u64("seed");
    cli.show_effective("sets", sets);

    util::print_banner("Hot-path perf: steps/sec, draws/sec, sims/sec");
    std::printf("config: %s\nmode: %s, %d set(s) per cell\n\n",
                cli.summary().c_str(), mode.c_str(), sets);

    std::vector<Cell> cells;
    for (const auto& scenario : scenarios) {
      for (const auto& battery : batteries) {
        for (const auto& scheme : schemes) {
          cells.push_back({scenario, scheme, battery});
        }
      }
    }

    std::vector<CellResult> results;
    for (const auto& cell : cells) {
      results.push_back(time_cell(cell, sets, seed));
    }
    // --trace-out records one extra UNTIMED rep of the first cell with
    // the trace sink attached — the timed loop above stays
    // instrumentation-free.
    if (const auto path = cli.get("trace-out"); !path.empty()) {
      write_direct_trace(cells.front(), seed, path);
    }

    auto count = [](const CellResult& r, const char* name) {
      return util::Table::num(static_cast<long long>(r.metrics.value(name)));
    };
    util::Table table({"scenario", "scheme", "battery", "sims",
                       "steps", "steps/s", "draws/s", "adv/s", "sims/s",
                       "scored/step", "grows"});
    for (const auto& r : results) {
      const double steps = r.metrics.value("steps");
      table.add_row(
          {r.cell.scenario, r.cell.scheme, r.cell.battery, count(r, "sims"),
           count(r, "steps"), fmt_rate(r.metrics.value("steps_per_sec")),
           fmt_rate(r.metrics.value("draws_per_sec")),
           fmt_rate(r.metrics.value("advances_per_sec")),
           fmt_rate(r.metrics.value("sims_per_sec")),
           util::Table::num(
               steps > 0 ? r.metrics.value("candidates_scored") / steps : 0.0,
               2),
           count(r, "scratch_grows")});
    }
    table.print();

    // Per-kernel counter table. exp/probe is the attribution figure for
    // the fast-series work: full exp sweeps cost one exp per series
    // term, fast advances one total. slot xfer/slots is the stochastic
    // kernel's share of slots that moved a quantum (the rest take the
    // fused loop's fast path).
    std::printf("\nper-kernel battery counters:\n");
    util::Table ktable({"scenario", "scheme", "battery", "exp_sweeps",
                        "exp_calls", "decay h/m", "gain h/m", "kibam_shx",
                        "pow h/m", "fast_adv", "slot xfer/slots"});
    auto hm = [&count](const CellResult& r, const char* h, const char* m) {
      return count(r, h) + "/" + count(r, m);
    };
    for (const auto& r : results) {
      ktable.add_row({r.cell.scenario, r.cell.scheme, r.cell.battery,
                      count(r, "k_exp_sweeps"), count(r, "k_exp_calls"),
                      hm(r, "k_decay_hits", "k_decay_misses"),
                      hm(r, "k_gain_hits", "k_gain_misses"),
                      count(r, "k_kibam_shared_exps"),
                      hm(r, "k_pow_hits", "k_pow_misses"),
                      count(r, "k_fast_advances"),
                      hm(r, "k_slot_transfers", "k_slots")});
    }
    ktable.print();

    const std::string json = to_json(results, mode, sets, seed);
    for (const char* option : {"json", "write-baseline"}) {
      if (const auto path = cli.get(option); !path.empty()) {
        std::ofstream out(path);
        if (!out) {
          throw std::runtime_error("cannot open '" + path + "' for writing");
        }
        out << json;
        std::printf("\nwrote %s\n", path.c_str());
      }
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_hotpath: %s\n", e.what());
    return 2;
  }
}
