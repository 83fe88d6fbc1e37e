// Hot-path performance benchmark: steps/sec, battery draws/sec and
// end-to-end sims/sec per (scheme x scenario x battery) cell, plus the
// tracked-baseline regression gate the perf-smoke CI job runs.
//
// Timing wraps sim::simulate_scheme only — workload generation and
// result folding stay outside the clock — and every run flips
// SimConfig::record_perf_counters so the rates are normalized by the
// *work actually performed* (scheduling steps, Battery::draw calls),
// not by wall time alone. Workload seeds depend only on (--seed, rep),
// so every cell of one rep times the same task-graph sets (CRN for
// perf: a cell ratio is a code ratio, not a workload ratio).
//
// Outputs BENCH_perf.json (schema "bas-perf/6", documented in
// EXPERIMENTS.md, "Performance"): per-cell counters, rates, the flat
// k_* kernel counters and the flat ph_* phase-profile fields — all
// driven off one obs::Metrics registry so the schema cannot drift from
// the metric names. The numbers are machine-dependent wall-clock rates
// — they are NOT covered by the byte-identity contract and never feed
// a resume cache; the counters underneath them are deterministic.
//
// In BAS_PROFILE builds a per-phase table shows where the step time
// goes, measured on one dedicated profiled rep per cell — the timed
// reps never arm the phase clock, so the gated rates stay clean;
// --trace-out FILE additionally writes a Chrome-trace JSON (one
// untimed audit rep in direct mode, the runner's campaign trace in
// --campaign mode) for Perfetto / chrome://tracing.
//
//   ./perf_hotpath --smoke                  # CI-sized cells, ~seconds
//   ./perf_hotpath --full                   # all schemes x batteries
//   ./perf_hotpath --smoke --baseline ../bench/perf_baseline.json
//   ./perf_hotpath --smoke --write-baseline perf_baseline.json
//   ./perf_hotpath --smoke --campaign --cache DIR
//   ./perf_hotpath --smoke --trace-out trace.json
//
// With --baseline, the run fails (exit 1) when any matching cell's
// steps/sec falls more than --max-regress (default 0.30) below the
// baseline file's figure. Regenerate the checked-in baseline with
// --write-baseline on a quiet machine after an intentional perf change.
//
// With --campaign the same cells run through the exp::Runner pipeline —
// per-rep jobs, one flushed store row per job when --cache is set —
// instead of the direct loop. The per-rep clock still wraps
// simulate_scheme only, so the rates measure the identical work and the
// campaign overhead (job claim, store append) shows up as the steps/sec
// delta against a direct run. That delta is the store's
// hot-path cost and is gated by the same --baseline machinery. Keep
// --jobs 1 when gating: the per-rep clock is wall time, so concurrent
// reps would time each other's CPU contention, not the store.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/experiment.hpp"
#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bas;

struct Cell {
  std::string scenario;
  std::string scheme;
  std::string battery;
};

struct CellResult {
  Cell cell;
  std::uint64_t sims = 0;
  std::uint64_t steps = 0;
  std::uint64_t battery_draws = 0;
  std::uint64_t battery_interval_advances = 0;
  std::uint64_t candidates_scored = 0;
  std::uint64_t scratch_grows = 0;
  std::uint64_t edf_incremental_ops = 0;
  double elapsed_s = 0.0;
  bas::bat::KernelCounters kernel;
  bas::obs::PhaseProfile phases;  ///< all zero unless BAS_PROFILE builds
  std::uint64_t ph_laps = 0;      ///< total phase boundaries clocked
  /// Wall time of the dedicated PROFILED rep the phases came from —
  /// the denominator of the sum/elapsed coverage column. Kept apart
  /// from elapsed_s (the timed, unprofiled reps): profiling reads a
  /// clock per phase boundary, which would distort the gated rates.
  double profile_elapsed_s = 0.0;

  double per_sec(double count) const {
    return elapsed_s > 0.0 ? count / elapsed_s : 0.0;
  }
  double steps_per_sec() const {
    return per_sec(static_cast<double>(steps));
  }
  double draws_per_sec() const {
    return per_sec(static_cast<double>(battery_draws));
  }
  double advances_per_sec() const {
    return per_sec(static_cast<double>(battery_interval_advances));
  }
  double sims_per_sec() const {
    return per_sec(static_cast<double>(sims));
  }
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

/// Metric lane order shared by the direct loop and the campaign
/// pipeline: 7 hot-path lanes, the 12 per-kernel battery counters in
/// KernelCounters declaration order, then the phase profile — 8
/// per-phase ns lanes (obs::phase_field order) plus the total boundary
/// count. Counters are exact in doubles (far below 2^53); the ph_*
/// lanes are non-zero only on a profiled rep (BAS_PROFILE builds,
/// record_phase_profile set) — timed and campaign reps never profile,
/// so their ph_* lanes are zero by construction.
constexpr std::size_t kLaneElapsed = 6;     ///< index of elapsed_s
constexpr std::size_t kLaneKernel = 7;      ///< first k_* lane
constexpr std::size_t kLanePhase = 19;      ///< first ph_* lane
const std::vector<std::string> make_metric_names() {
  std::vector<std::string> names = {
      "steps",       "battery_draws", "battery_interval_advances",
      "candidates_scored", "scratch_grows", "edf_incremental_ops",
      "elapsed_s",
      "k_exp_sweeps", "k_exp_calls",  "k_decay_hits", "k_decay_misses",
      "k_gain_hits",  "k_gain_misses", "k_kibam_shared_exps", "k_pow_hits",
      "k_pow_misses", "k_fast_advances", "k_slots", "k_slot_transfers"};
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    names.push_back(obs::phase_field(static_cast<obs::Phase>(p)));
  }
  names.push_back("ph_laps");
  return names;
}
const std::vector<std::string> kMetricNames = make_metric_names();
static_assert(kLaneKernel == kLaneElapsed + 1);

void fold_metrics(CellResult* out, const std::vector<double>& m) {
  auto u64 = [](double v) { return static_cast<std::uint64_t>(v); };
  ++out->sims;
  out->steps += u64(m[0]);
  out->battery_draws += u64(m[1]);
  out->battery_interval_advances += u64(m[2]);
  out->candidates_scored += u64(m[3]);
  out->scratch_grows += u64(m[4]);
  out->edf_incremental_ops += u64(m[5]);
  out->elapsed_s += m[kLaneElapsed];
  auto& k = out->kernel;
  k.exp_sweeps += u64(m[kLaneKernel + 0]);
  k.exp_calls += u64(m[kLaneKernel + 1]);
  k.decay_hits += u64(m[kLaneKernel + 2]);
  k.decay_misses += u64(m[kLaneKernel + 3]);
  k.gain_hits += u64(m[kLaneKernel + 4]);
  k.gain_misses += u64(m[kLaneKernel + 5]);
  k.kibam_shared_exps += u64(m[kLaneKernel + 6]);
  k.pow_hits += u64(m[kLaneKernel + 7]);
  k.pow_misses += u64(m[kLaneKernel + 8]);
  k.fast_advances += u64(m[kLaneKernel + 9]);
  k.slots += u64(m[kLaneKernel + 10]);
  k.slot_transfers += u64(m[kLaneKernel + 11]);
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    out->phases.ns[p] += u64(m[kLanePhase + static_cast<std::size_t>(p)]);
  }
  out->ph_laps += u64(m[kLanePhase + obs::kPhaseCount]);
}

/// Times one replicate of one cell: the clock wraps simulate_scheme
/// only. Returns the kMetricNames lanes. `profile` arms the phase
/// clock (BAS_PROFILE builds) — never set it on a rep whose rates are
/// gated; the boundary clock reads cost tens of percent on dense
/// cells, so the profiled rep is a separate, un-gated run.
std::vector<double> time_rep(const Cell& cell, std::uint64_t seed, int rep,
                             bool profile = false) {
  const auto& scn = scenario::scenario(cell.scenario);
  const auto proc = scn.make_processor();
  const auto kind = exp::scheme_kind_at(scheme_index(cell.scheme));
  // Same seeding contract as the campaign drivers: the workload and
  // sim seeds depend only on the replicate, never on the cell.
  const std::uint64_t rep_seed =
      util::Rng::hash_combine(seed, static_cast<std::uint64_t>(rep));
  util::Rng rng(rep_seed);
  const auto set = scn.make_workload(rng);
  auto config = scn.sim_config(util::Rng::hash_combine(rep_seed, 1000u));
  config.record_perf_counters = true;
  config.record_phase_profile = profile;
  const auto battery = exp::make_battery(cell.battery);

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = sim::simulate_scheme(set, proc, kind, config,
                                      battery.get());
  const auto t1 = std::chrono::steady_clock::now();
  const auto& k = r.perf.kernel;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> lanes = {d(r.perf.steps),
                               d(r.perf.battery_draws),
                               d(r.perf.battery_interval_advances),
                               d(r.perf.candidates_scored),
                               d(r.perf.scratch_grows),
                               d(r.perf.edf_incremental_ops),
                               std::chrono::duration<double>(t1 - t0).count(),
                               d(k.exp_sweeps),
                               d(k.exp_calls),
                               d(k.decay_hits),
                               d(k.decay_misses),
                               d(k.gain_hits),
                               d(k.gain_misses),
                               d(k.kibam_shared_exps),
                               d(k.pow_hits),
                               d(k.pow_misses),
                               d(k.fast_advances),
                               d(k.slots),
                               d(k.slot_transfers)};
  std::uint64_t laps = 0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    lanes.push_back(d(r.perf.phases.ns[p]));
    laps += r.perf.phases.laps[p];
  }
  lanes.push_back(d(laps));
  return lanes;
}

CellResult time_cell(const Cell& cell, int sets, std::uint64_t seed) {
  CellResult out;
  out.cell = cell;
  for (int rep = 0; rep < sets; ++rep) {
    fold_metrics(&out, time_rep(cell, seed, rep));
  }
  if (obs::PhaseProfile::compiled_in) {
    // One dedicated profiled rep fills the ph_* lanes; its own wall
    // time is the coverage denominator. The timed reps above stay
    // unprofiled so the gated rates measure the loop, not the clock.
    const auto lanes = time_rep(cell, seed, 0, /*profile=*/true);
    auto u64 = [](double v) { return static_cast<std::uint64_t>(v); };
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      out.phases.ns[p] = u64(lanes[kLanePhase + static_cast<std::size_t>(p)]);
    }
    out.ph_laps = u64(lanes[kLanePhase + obs::kPhaseCount]);
    out.profile_elapsed_s = lanes[kLaneElapsed];
  }
  return out;
}

/// --trace-out in direct mode: one untimed rep 0 of `cell` with the
/// Chrome-trace sink attached — execution-slice spans and release /
/// completion instants on the sim-time tracks, plus per-step phase
/// spans under BAS_PROFILE. Load the file in Perfetto or
/// chrome://tracing.
void write_direct_trace(const Cell& cell, std::uint64_t seed,
                        const std::string& path) {
  const auto& scn = scenario::scenario(cell.scenario);
  const auto proc = scn.make_processor();
  const auto kind = exp::scheme_kind_at(scheme_index(cell.scheme));
  const std::uint64_t rep_seed = util::Rng::hash_combine(seed, 0u);
  util::Rng rng(rep_seed);
  const auto set = scn.make_workload(rng);
  auto config = scn.sim_config(util::Rng::hash_combine(rep_seed, 1000u));
  config.record_perf_counters = true;
  config.record_phase_profile = true;  // phase spans on the wall-clock track
  config.record_trace = true;  // per-slice accounting, no battery merging
  const auto battery = exp::make_battery(cell.battery);

  obs::TraceLog log;
  log.name_process(obs::kSimPid, "sim: " + cell.scenario + "/" + cell.scheme +
                                     "/" + cell.battery);
  log.name_process(obs::kProfilerPid, "profiler phases (wall clock)");
  config.trace_log = &log;
  sim::simulate_scheme(set, proc, kind, config, battery.get());
  log.write(path);
  std::printf("\nwrote trace %s (%zu events)\n", path.c_str(), log.size());
}

/// Campaign mode: the identical cells as per-rep jobs through the full
/// exp::Runner pipeline (thread pool + per-job store append when --cache
/// is set), folded back into CellResults.
std::vector<CellResult> run_campaign(const std::vector<Cell>& cells,
                                     int sets, std::uint64_t seed,
                                     const exp::RunnerOptions& options) {
  exp::ExperimentSpec spec;
  spec.title = "perf-hotpath-campaign";
  std::vector<std::string> labels;
  for (const auto& cell : cells) {
    labels.push_back(cell.scenario + "/" + cell.scheme + "/" + cell.battery);
  }
  spec.grid.add("cell", labels);
  spec.metrics = kMetricNames;
  spec.replicates = sets;
  spec.seed = seed;
  spec.run = [&cells, seed](const exp::Job& job) {
    return time_rep(cells[job.cell], seed, job.replicate);
  };
  const auto result = exp::Runner(options).run(spec);

  std::vector<CellResult> out;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellResult r;
    r.cell = cells[c];
    const std::uint64_t reps = result.at(c, 0).count();
    std::vector<double> sums;
    for (std::size_t m = 0; m < kMetricNames.size(); ++m) {
      sums.push_back(result.sum(c, m));
    }
    // fold_metrics counts one sim per call; feed it the summed lanes
    // once, then fix up the replicate count.
    fold_metrics(&r, sums);
    r.sims = reps;
    out.push_back(std::move(r));
  }
  return out;
}

constexpr const char* kSchema = "bas-perf/6";

/// The flat numeric fields of one bas-perf/6 cell, as a metrics
/// registry in schema order. One builder serves the JSON emitter and
/// any future consumer, so the cell schema and the registry names
/// cannot drift apart.
obs::Metrics cell_metrics(const CellResult& r) {
  obs::Metrics metrics;
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  metrics.set("sims", u(r.sims));
  metrics.set("steps", u(r.steps));
  metrics.set("battery_draws", u(r.battery_draws));
  metrics.set("battery_interval_advances", u(r.battery_interval_advances));
  metrics.set("candidates_scored", u(r.candidates_scored));
  metrics.set("scratch_grows", u(r.scratch_grows));
  metrics.set("edf_incremental_ops", u(r.edf_incremental_ops));
  metrics.set("elapsed_s", r.elapsed_s, obs::MetricKind::kGauge);
  metrics.set("steps_per_sec", r.steps_per_sec(), obs::MetricKind::kGauge);
  metrics.set("draws_per_sec", r.draws_per_sec(), obs::MetricKind::kGauge);
  metrics.set("advances_per_sec", r.advances_per_sec(),
              obs::MetricKind::kGauge);
  metrics.set("sims_per_sec", r.sims_per_sec(), obs::MetricKind::kGauge);
  const auto& k = r.kernel;
  metrics.set("k_exp_sweeps", u(k.exp_sweeps));
  metrics.set("k_exp_calls", u(k.exp_calls));
  metrics.set("k_decay_hits", u(k.decay_hits));
  metrics.set("k_decay_misses", u(k.decay_misses));
  metrics.set("k_gain_hits", u(k.gain_hits));
  metrics.set("k_gain_misses", u(k.gain_misses));
  metrics.set("k_kibam_shared_exps", u(k.kibam_shared_exps));
  metrics.set("k_pow_hits", u(k.pow_hits));
  metrics.set("k_pow_misses", u(k.pow_misses));
  metrics.set("k_fast_advances", u(k.fast_advances));
  metrics.set("k_slots", u(k.slots));
  metrics.set("k_slot_transfers", u(k.slot_transfers));
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    metrics.set(obs::phase_field(static_cast<obs::Phase>(p)),
                u(r.phases.ns[p]));
  }
  metrics.set("ph_laps", u(r.ph_laps));
  metrics.set("ph_elapsed_s", r.profile_elapsed_s, obs::MetricKind::kGauge);
  return metrics;
}

std::string to_json(const std::vector<CellResult>& results,
                    const std::string& mode, int sets, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"sets\": " << sets << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"profile_compiled_in\": "
      << (obs::PhaseProfile::compiled_in ? "true" : "false") << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    // Every numeric field stays FLAT inside the cell object: the
    // baseline loader chunks the file on braces, so a nested object
    // would split a cell in two. The fields and their order come from
    // the cell_metrics registry.
    out << "    {\"scenario\": \"" << r.cell.scenario << "\", \"scheme\": \""
        << r.cell.scheme << "\", \"battery\": \"" << r.cell.battery << "\"";
    const obs::Metrics metrics = cell_metrics(r);
    for (const auto& entry : metrics.entries()) {
      out << ", \"" << entry.name << "\": " << obs::format_value(entry.value);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------
// Baseline file handling. The parser mirrors the defensive style of the
// campaign cache: anything it cannot read is simply not a cell, so a
// hand-edited or truncated baseline degrades to "no gate", not a crash.

struct BaselineCell {
  Cell cell;
  double steps_per_sec = 0.0;
  double steps = 0.0;  // deterministic work count; 0 when absent
};

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

std::vector<BaselineCell> load_baseline(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open baseline file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  // Schema gate up front: an old-schema baseline would "match" on the
  // shared keys and gate against stale semantics, so mismatches fail
  // loudly instead of degrading to no-cells.
  std::string schema;
  if (!extract_string(text, "schema", &schema) || schema != kSchema) {
    throw std::runtime_error(
        "baseline file '" + path + "' has schema '" +
        (schema.empty() ? "<missing>" : schema) + "' but this binary reads '" +
        kSchema + "' — regenerate it with --write-baseline");
  }

  std::vector<BaselineCell> cells;
  std::size_t at = 0;
  while ((at = text.find('{', at + 1)) != std::string::npos) {
    const auto end = text.find('}', at);
    if (end == std::string::npos) {
      break;
    }
    const std::string chunk = text.substr(at, end - at);
    BaselineCell cell;
    if (extract_string(chunk, "scenario", &cell.cell.scenario) &&
        extract_string(chunk, "scheme", &cell.cell.scheme) &&
        extract_string(chunk, "battery", &cell.cell.battery) &&
        extract_number(chunk, "steps_per_sec", &cell.steps_per_sec)) {
      // The `": "`-anchored needle cannot match "steps_per_sec".
      extract_number(chunk, "steps", &cell.steps);  // optional
      cells.push_back(std::move(cell));
    }
    at = end;
  }
  return cells;
}

/// Returns the number of failed cells (0 = gate passed). Zero matched
/// cells counts as a failure: an explicitly requested gate that cannot
/// find its baseline (unreadable file, reformatted JSON, renamed
/// cells) must not silently pass.
int check_against_baseline(const std::vector<CellResult>& results,
                           const std::vector<BaselineCell>& baseline,
                           double max_regress) {
  int regressions = 0;
  int matched = 0;
  for (const auto& r : results) {
    for (const auto& b : baseline) {
      if (b.cell.scenario != r.cell.scenario ||
          b.cell.scheme != r.cell.scheme ||
          b.cell.battery != r.cell.battery || !(b.steps_per_sec > 0.0)) {
        continue;
      }
      ++matched;
      const double ratio = r.steps_per_sec() / b.steps_per_sec;
      const bool regressed = ratio < 1.0 - max_regress;
      if (regressed) {
        ++regressions;
      }
      std::printf("baseline %-14s x %-6s x %-10s %10s vs %10s "
                  "steps/s (%.2fx)%s\n",
                  r.cell.scenario.c_str(), r.cell.scheme.c_str(),
                  r.cell.battery.c_str(),
                  fmt_rate(r.steps_per_sec()).c_str(),
                  fmt_rate(b.steps_per_sec).c_str(), ratio,
                  regressed ? "  <-- REGRESSION" : "");
      if (b.steps > 0.0 &&
          b.steps != static_cast<double>(r.steps)) {
        // The counters are bit-deterministic for a given (seed, sets):
        // a mismatch means behaviour changed since the baseline was
        // recorded, so the rate comparison is apples to oranges.
        std::printf("  note: step count %llu differs from baseline %.0f — "
                    "behaviour changed; regenerate the baseline\n",
                    static_cast<unsigned long long>(r.steps), b.steps);
      }
      break;
    }
  }
  if (matched == 0) {
    std::printf("baseline: no cells matched — failing (regenerate the "
                "baseline with --write-baseline, or fix the file)\n");
    return 1;
  }
  return regressions;
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
                   {"max-regress", "0.30"},
                   {"write-baseline", ""},
                   {"campaign", "false"},
                   {"jobs", "1"},
                   {"cache", ""},
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
    const std::string schemes_override = cli.get("schemes");
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
    if (!schemes_override.empty()) {
      // Comma-separated override of the scheme axis (profiling runs).
      schemes.clear();
      std::stringstream ss(schemes_override);
      for (std::string item; std::getline(ss, item, ',');) {
        scheme_index(item);  // eager validation
        schemes.push_back(item);
      }
    }
    if (const auto v = cli.get("scenarios"); !v.empty()) {
      // Comma-separated override of the scenario axis (profiling runs).
      scenarios.clear();
      std::stringstream ss(v);
      for (std::string item; std::getline(ss, item, ',');) {
        scenario::scenario(item);  // eager validation
        scenarios.push_back(item);
      }
    }
    if (const auto v = cli.get("batteries"); !v.empty()) {
      batteries.clear();
      std::stringstream ss(v);
      for (std::string item; std::getline(ss, item, ',');) {
        scenario::make_battery(item);  // eager validation
        batteries.push_back(item);
      }
    }
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
    if (cli.get_flag("campaign")) {
      mode += "+campaign";
      exp::RunnerOptions options;
      options.jobs = cli.jobs();
      options.cache_dir = cli.get("cache");
      // Campaign mode: --trace-out records the runner-level trace (job
      // spans per worker, retry/fail markers), not a sim-level one.
      options.trace_out = cli.get("trace-out");
      results = run_campaign(cells, sets, seed, options);
    } else {
      for (const auto& cell : cells) {
        results.push_back(time_cell(cell, sets, seed));
      }
      // Direct mode: --trace-out records one extra UNTIMED rep of the
      // first cell with the trace sink attached — the timed loop above
      // stays instrumentation-free.
      if (const auto path = cli.get("trace-out"); !path.empty()) {
        write_direct_trace(cells.front(), seed, path);
      }
    }

    util::Table table({"scenario", "scheme", "battery", "sims",
                       "steps", "steps/s", "draws/s", "adv/s", "sims/s",
                       "scored/step", "grows"});
    for (const auto& r : results) {
      table.add_row(
          {r.cell.scenario, r.cell.scheme, r.cell.battery,
           util::Table::num(static_cast<long long>(r.sims)),
           util::Table::num(static_cast<long long>(r.steps)),
           fmt_rate(r.steps_per_sec()), fmt_rate(r.draws_per_sec()),
           fmt_rate(r.advances_per_sec()), fmt_rate(r.sims_per_sec()),
           util::Table::num(r.steps > 0
                                ? static_cast<double>(r.candidates_scored) /
                                      static_cast<double>(r.steps)
                                : 0.0,
                            2),
           util::Table::num(static_cast<long long>(r.scratch_grows))});
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
    auto hm = [](std::uint64_t h, std::uint64_t m) {
      return std::to_string(h) + "/" + std::to_string(m);
    };
    for (const auto& r : results) {
      const auto& k = r.kernel;
      ktable.add_row(
          {r.cell.scenario, r.cell.scheme, r.cell.battery,
           util::Table::num(static_cast<long long>(k.exp_sweeps)),
           util::Table::num(static_cast<long long>(k.exp_calls)),
           hm(k.decay_hits, k.decay_misses), hm(k.gain_hits, k.gain_misses),
           util::Table::num(static_cast<long long>(k.kibam_shared_exps)),
           hm(k.pow_hits, k.pow_misses),
           util::Table::num(static_cast<long long>(k.fast_advances)),
           hm(k.slot_transfers, k.slots)});
    }
    ktable.print();

    // Per-phase profile table (BAS_PROFILE builds): where the measured
    // step time goes, from each cell's dedicated profiled rep.
    // `sum/elapsed` is the coverage ratio against that rep's own wall
    // time — the phases partition the loop body, so on dense cells the
    // phase sum should account for most of it (the remainder is the
    // clock reads themselves plus setup/teardown outside the loop).
    // Campaign-mode cells carry no profiled rep and are skipped.
    if (obs::PhaseProfile::compiled_in) {
      std::printf("\nper-phase profile (%% of phase total):\n");
      std::vector<std::string> header{"scenario", "scheme", "battery"};
      for (int p = 0; p < obs::kPhaseCount; ++p) {
        header.push_back(obs::phase_name(static_cast<obs::Phase>(p)));
      }
      header.push_back("sum_ms");
      header.push_back("sum/elapsed");
      util::Table ptable(header);
      bool any = false;
      for (const auto& r : results) {
        const double total = static_cast<double>(r.phases.total_ns());
        if (!(total > 0.0)) {
          continue;
        }
        any = true;
        std::vector<std::string> row{r.cell.scenario, r.cell.scheme,
                                     r.cell.battery};
        for (int p = 0; p < obs::kPhaseCount; ++p) {
          const double share =
              100.0 * static_cast<double>(r.phases.ns[p]) / total;
          char buffer[16];
          std::snprintf(buffer, sizeof(buffer), "%.1f%%", share);
          row.push_back(buffer);
        }
        row.push_back(util::Table::num(total / 1e6, 1));
        row.push_back(util::Table::num(
            r.profile_elapsed_s > 0.0 ? total / 1e9 / r.profile_elapsed_s
                                      : 0.0,
            2));
        ptable.add_row(row);
      }
      if (any) {
        ptable.print();
      } else {
        std::printf("  (campaign mode: no profiled rep per cell)\n");
      }
    }

    const std::string json =
        to_json(results, mode, sets, seed);
    if (const auto path = cli.get("json"); !path.empty()) {
      std::ofstream out(path);
      if (!out) {
        throw std::runtime_error("cannot open '" + path + "' for writing");
      }
      out << json;
      std::printf("\nwrote %s\n", path.c_str());
    }
    if (const auto path = cli.get("write-baseline"); !path.empty()) {
      std::ofstream out(path);
      if (!out) {
        throw std::runtime_error("cannot open '" + path + "' for writing");
      }
      out << json;
      std::printf("wrote baseline %s\n", path.c_str());
    }

    if (const auto path = cli.get("baseline"); !path.empty()) {
      const double max_regress = cli.get_double("max-regress");
      std::printf("\n");
      const int failures =
          check_against_baseline(results, load_baseline(path), max_regress);
      if (failures > 0) {
        std::printf("baseline gate failed (%d failing check(s), threshold "
                    "%.0f%%)\n",
                    failures, 100.0 * max_regress);
        return 1;
      }
      std::printf("baseline gate passed (max regression %.0f%%)\n",
                  100.0 * max_regress);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_hotpath: %s\n", e.what());
    return 2;
  }
}
