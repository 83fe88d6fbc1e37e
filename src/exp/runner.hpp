#pragma once
// The campaign runner: plan -> open the store -> execute -> fold.
//
//  plan     Validate the spec (run function, metrics, replicates >= 1)
//           and the options. No job list is built: every job is a pure
//           function of its index (plan.hpp). spec_fingerprint keys
//           the campaign store.
//  store    With a store directory, the runner loads every stored row
//           of the fingerprint (store/jsonl.hpp). A resumed run
//           executes only the jobs missing from it; a merge executes
//           nothing and requires every job to be stored.
//  execute  Workers — the calling thread and up to jobs - 1 more, each
//           started by the one before — claim the pending job indices
//           from one shared atomic cursor and derive each Job with
//           make_job when they claim it, so uneven cell costs never
//           leave a thread idle while work remains. Each worker
//           appends its finished row to the JSONL store itself (one
//           write + flush) before it claims the next job, so every row
//           of a finished job is on disk. A Progress reporter
//           (progress.hpp) heartbeats jobs/ETA to stderr.
//  fold     The job-order fold merges stored and freshly computed
//           metrics into an ExperimentResult. Because %.17g round-trips
//           doubles exactly (the store keeps that rendering), a result
//           folded from any mix of store hits and live jobs is
//           byte-identical to a fresh run.
//
// Two properties are guaranteed:
//
//  1. Determinism for any thread count or resume history. Job seeds
//     are pure functions of grid coordinates (job.hpp), each job's
//     metrics land in a slot indexed by job id, and the fold happens
//     after the pool drains, in job order — the claim order changes
//     who computes a job, never what it computes or where it lands.
//  2. Isolation. The spec's run function receives only the Job; it is
//     expected to build its own Scheme / Battery / TaskGraphSet, so no
//     mutable state is shared between workers.
//
// Robustness: each claimed job runs exactly once, on the worker that
// claimed it. A job is a deterministic function of its coordinates, so
// running it again would fail the same way; there are no retries and no
// per-job deadline. A failed job aborts the run, or with keep_going it
// is recorded in the store as an error row and the run carries on —
// resumed runs re-execute failed jobs rather than trusting the
// failure. A store that cannot be written is not a job failure: it
// aborts the campaign once, naming the store file.

#include <functional>
#include <map>
#include <string>

#include "exp/experiment.hpp"

namespace bas::util {
class Cli;
}

namespace bas::exp {

struct RunnerOptions {
  /// Worker threads; <= 0 selects std::thread::hardware_concurrency().
  int jobs = 1;
  /// When non-empty, load previously stored jobs from this campaign
  /// store directory instead of recomputing them, and append fresh
  /// results to it.
  std::string cache_dir;
  /// Execute nothing: fold the complete result from the store alone.
  /// Requires cache_dir; throws when any job is missing (unless
  /// keep_going tolerates jobs recorded as failed).
  bool merge_only = false;
  /// Report jobs-done/total and ETA to stderr while executing, at most
  /// one heartbeat line per half second.
  bool progress = false;
  /// When non-empty, record a whole-campaign Chrome trace (per-job
  /// spans on per-worker tracks, fail markers) and write it to
  /// this path after the pool drains — load it in Perfetto / chrome://tracing. Purely
  /// observational: results and stored rows are byte-identical with or
  /// without it.
  std::string trace_out;
  /// When a job fails: record an error row in the store and carry on
  /// (true) instead of aborting the run (false).
  /// Cells with failed jobs aggregate the replicates that succeeded.
  bool keep_going = false;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Runs the spec's campaign. Throws std::invalid_argument on a
  /// malformed spec (no run function, no metrics, replicates < 1) or a
  /// merge without a store directory, and std::runtime_error when a job
  /// fails without keep_going — the message names the failing job's
  /// grid coordinates and replicate — or the store cannot be written —
  /// the message names the store file. Remaining jobs are abandoned.
  ExperimentResult run(const ExperimentSpec& spec) const;

 private:
  RunnerOptions options_;
};

/// One-shot convenience: Runner{{.jobs = jobs}}.run(spec).
ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs = 1);

/// One-shot convenience with the full campaign option set.
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunnerOptions& options);

/// Builds RunnerOptions from the shared bench flags (--jobs, --cache,
/// --merge, --progress, --trace-out, --keep-going;
/// see util::Cli::with_bench_defaults). Runner::run enforces that
/// --merge comes with --cache.
RunnerOptions options_from_cli(const util::Cli& cli);

/// The entry point of every bench and example `main`: parses argv
/// against `defaults` and runs `body`, with one exit-code contract.
///   --help            prints util::Cli::usage(defaults) to stdout, exit 0
///   --list-scenarios  (when declared, see scenario::with_scenario_defaults)
///                     prints the catalogue, exit 0
///   a rejected input  any std::invalid_argument — from parsing or from
///                     the body — prints "error: <message>" and the
///                     known options to stderr, exit 2
/// Otherwise it returns body's result. Every other exception propagates,
/// so a real bug still aborts.
int run_main(int argc, char** argv, std::map<std::string, std::string> defaults,
             const std::function<int(util::Cli&)>& body);

}  // namespace bas::exp
