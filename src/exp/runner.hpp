#pragma once
// The campaign runner: plan -> execute -> collect.
//
//  plan     A Plan (plan.hpp) materializes the job manifest — indices,
//           coordinates, seeds — and the spec fingerprint that keys the
//           campaign store.
//  execute  The worker pool runs only the jobs selected by the optional
//           shard partition and not already present in the campaign
//           store (store/jsonl.hpp). Workers claim jobs from one shared
//           atomic cursor, so uneven cell costs never leave a thread
//           idle while work remains. Each worker appends its finished
//           row to the JSONL store itself (one write + flush) before it
//           claims the next job, so every row of a finished job is on
//           disk. A Progress reporter (progress.hpp) heartbeats jobs/ETA
//           to stderr.
//  collect  The job-order fold merges stored and freshly computed
//           metrics into an ExperimentResult. Because %.17g round-trips
//           doubles exactly (the store keeps that rendering), a result
//           folded from any mix of store hits, shard partials and live
//           jobs is byte-identical to a fresh single-process run.
//
// Two properties are guaranteed:
//
//  1. Determinism for any thread count, shard split or resume
//     history. Job seeds are pure functions of grid coordinates
//     (job.hpp), each job's metrics land in a slot indexed by job id,
//     and the fold happens after the pool drains, in job order — the
//     claim order changes who computes a job, never what it computes
//     or where it lands.
//  2. Isolation. The spec's run function receives only the Job; it is
//     expected to build its own Scheme / Battery / TaskGraphSet, so no
//     mutable state is shared between workers.
//
// Robustness: a per-job deadline (job_timeout_s) and bounded retries
// with exponential backoff (job_attempts) guard long campaigns against
// hung or flaky cells; with keep_going, a job that still fails is
// recorded in the store as an error row and the shard carries on —
// resumed runs re-execute failed jobs rather than trusting the
// failure. A store that cannot be written is not a job failure: it
// aborts the campaign once, naming the store file, without retries.
//
// Cluster fan-out: run shard i with `{.shard = Shard{i, n},
// .cache_dir = DIR}` on n machines sharing DIR (or copy the shard files
// together afterwards), then fold everything with `{.merge_only = true,
// .cache_dir = DIR}`.

#include <cstddef>
#include <optional>
#include <string>

#include "exp/experiment.hpp"
#include "exp/plan.hpp"

namespace bas::util {
class Cli;
}

namespace bas::exp {

struct RunnerOptions {
  /// Worker threads; <= 0 selects std::thread::hardware_concurrency().
  int jobs = 1;
  /// When set, execute only the jobs of this slice of the round-robin
  /// partition; the collected result covers just those jobs unless the
  /// store supplies the rest.
  std::optional<Shard> shard;
  /// When non-empty, load previously stored jobs from this campaign
  /// store directory instead of recomputing them, and append fresh
  /// results to it.
  std::string cache_dir;
  /// Execute nothing: fold the complete result from the store alone.
  /// Requires cache_dir; throws when any job is missing (unless
  /// keep_going tolerates jobs recorded as failed).
  bool merge_only = false;
  /// Before loading, rewrite the store in place: dedupe re-run jobs,
  /// drop records whose fingerprint does not match this spec
  /// (store::compact_jsonl). Requires cache_dir, refuses when another
  /// live writer process holds the directory, and is rejected together
  /// with a shard — sibling shard processes may still be appending.
  /// Composes with merging and resuming.
  bool compact_cache = false;
  /// Report jobs-done/total and ETA to stderr while executing.
  bool progress = false;
  /// Seconds between progress heartbeat lines (--progress-interval);
  /// <= 0 prints on every finished job.
  double progress_interval_s = 0.5;
  /// When non-empty, record a whole-campaign Chrome trace (per-job
  /// spans on per-worker tracks, retry/fail markers) and write it to
  /// this path after the pool drains — load it in Perfetto / chrome://tracing. Purely
  /// observational: results and stored rows are byte-identical with or
  /// without it.
  std::string trace_out;
  /// Per-job wall-clock deadline in seconds; 0 disables. A job past
  /// its deadline counts as a failed attempt (the runner stops waiting
  /// for it; the abandoned attempt finishes on a detached thread).
  double job_timeout_s = 0.0;
  /// Attempts per job (>= 1). Failed attempts retry with exponential
  /// backoff starting at 50 ms.
  int job_attempts = 1;
  /// When a job exhausts its attempts: record an error row in the
  /// store and carry on (true) instead of aborting the run (false).
  /// Cells with failed jobs aggregate the replicates that succeeded.
  bool keep_going = false;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Runs the spec's campaign. Throws std::invalid_argument on a
  /// malformed spec (no run function, no metrics, replicates < 1) or an
  /// inconsistent option set (merge without a store, merge with a
  /// shard, job_attempts < 1), and std::runtime_error when a job fails
  /// permanently without keep_going — the message names the failing
  /// job's grid coordinates and replicate — or the store cannot be
  /// written — the message names the store file. Remaining jobs are
  /// abandoned.
  ExperimentResult run(const ExperimentSpec& spec) const;

 private:
  RunnerOptions options_;
};

/// One-shot convenience: Runner{{.jobs = jobs}}.run(spec).
ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs = 1);

/// One-shot convenience with the full campaign option set.
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunnerOptions& options);

/// Builds RunnerOptions from the shared bench flags (--jobs, --shard,
/// --cache, --cache-compact, --merge, --progress,
/// --progress-interval, --trace-out, --job-timeout, --job-attempts,
/// --keep-going; see util::Cli::with_bench_defaults).
/// Throws std::runtime_error on a malformed --shard;
/// cross-option consistency (--merge needs --cache, ...) is enforced
/// by Runner::run.
RunnerOptions options_from_cli(const util::Cli& cli);

}  // namespace bas::exp
