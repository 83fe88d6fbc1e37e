#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/plan.hpp"
#include "exp/progress.hpp"
#include "obs/trace_log.hpp"
#include "scenario/scenario.hpp"
#include "store/jsonl.hpp"
#include "util/cli.hpp"

namespace bas::exp {

namespace {

using StoredMetrics = std::map<std::size_t, std::vector<double>>;

/// Seconds between --progress heartbeat lines.
constexpr double kProgressIntervalS = 0.5;

// ---- merge check ------------------------------------------------------

/// Merge mode: counts the jobs missing from the store and throws
/// std::runtime_error naming the first one unless keep_going folds the
/// partial result. Every index is checked, not the record count: stray
/// out-of-range records (a hand-edited or corrupted store) must not
/// mask a genuinely missing job.
std::size_t check_merge(const ExperimentSpec& spec,
                        const RunnerOptions& options,
                        store::JsonlStore& store,
                        const StoredMetrics& stored) {
  const std::size_t n_jobs = spec.job_count();
  std::size_t present = 0;
  std::size_t first_missing = n_jobs;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (stored.count(i)) {
      ++present;
    } else if (first_missing == n_jobs) {
      first_missing = i;
    }
  }
  if (present == n_jobs || options.keep_going) {
    return n_jobs - present;
  }
  std::string message =
      "experiment '" + spec.title + "': merge found only " +
      std::to_string(present) + " of " + std::to_string(n_jobs) +
      " jobs in store '" + options.cache_dir + "' (first missing: " +
      describe(spec, make_job(spec, first_missing)) + ")";
  // Jobs that failed under --keep-going left error rows instead of
  // metrics; say so rather than just "missing".
  std::size_t failed = 0;
  std::string first_error;
  for (const auto& [index, error] : store.load_errors()) {
    if (index < n_jobs && !stored.count(index)) {
      if (failed++ == 0) {
        first_error = "job " + std::to_string(index) + ": " + error;
      }
    }
  }
  if (failed > 0) {
    message += "; " + std::to_string(failed) +
               " of the missing job(s) recorded as failed (first: " +
               first_error + "); re-run without --merge to retry them" +
               " or pass --keep-going to fold the partial result";
  }
  throw std::runtime_error(message);
}

// ---- execute ----------------------------------------------------------

/// The worker pool over the pending jobs. Workers claim positions in
/// `pending` from one shared cursor and build the claimed Job from its
/// index; results land in job-indexed slots and are folded in job order
/// afterwards, so which worker computes a job never changes the result.
class Pool {
 public:
  Pool(const ExperimentSpec& spec, const RunnerOptions& options,
       store::JsonlStore* store, const std::vector<std::size_t>& pending,
       Progress& progress)
      : spec_(spec),
        options_(options),
        store_(store),
        pending_(pending),
        progress_(progress),
        results_(spec.job_count()) {
    // Campaign trace (--trace-out): per-job spans on per-worker tracks
    // and fail markers. The log is observational only — it never feeds
    // results or the store.
    if (!options.trace_out.empty()) {
      trace_.emplace();
      trace_->name_process(obs::kCampaignPid, "campaign: " + spec.title);
    }
  }

  /// Runs every pending job and writes the campaign trace. Returns the
  /// job-indexed fresh metrics (empty where no job ran or it failed).
  /// Throws std::runtime_error naming the first error when a job failed
  /// without keep_going or the store or trace could not be written.
  std::vector<std::vector<double>> run() {
    int threads = options_.jobs;
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    // The calling thread is worker 0. Each worker starts the next one
    // before it claims a job, so the first job waits for one thread
    // start instead of jobs - 1.
    const int workers = static_cast<int>(std::clamp<std::size_t>(
        pending_.size(), 1, static_cast<std::size_t>(std::max(1, threads))));
    work(0, workers);
    // Write the campaign trace even when a job failed — a trace of the
    // run that died is exactly what the post-mortem wants.
    if (trace_) {
      try {
        trace_->write(options_.trace_out);
        progress_.note("campaign trace (" + std::to_string(trace_->size()) +
                       " events) written to '" + options_.trace_out + "'");
      } catch (const std::exception& e) {
        abort_run(e.what());
      }
    }
    if (failed_.load()) {
      throw std::runtime_error("experiment '" + spec_.title +
                               "' failed at " + first_error_);
    }
    if (const std::size_t n_failed = failed_jobs_.load(); n_failed > 0) {
      progress_.note(std::to_string(n_failed) + " job(s) failed (first: " +
                     first_failure_ +
                     "); their cells aggregate the surviving replicates "
                     "and the failures are recorded as error rows");
    }
    return std::move(results_);
  }

 private:
  /// Runs worker `tid` of `workers`, starting worker tid + 1 first
  /// and joining it when this worker runs out of jobs.
  void work(int tid, int workers) {
    std::jthread next;
    if (tid + 1 < workers) {
      next = std::jthread(&Pool::work, this, tid + 1, workers);
    }
    obs::TraceLog* const tlog = trace_ ? &*trace_ : nullptr;
    while (!failed_.load(std::memory_order_relaxed)) {
      const std::size_t k = next_.fetch_add(1);
      if (k >= pending_.size()) {
        return;
      }
      const Job job = make_job(spec_, pending_[k]);
      const double job_t0 = tlog != nullptr ? tlog->now_us() : 0.0;
      store::StoreRecord record = compute(job);
      const bool ok = !record.is_error();
      // Jobs are deterministic, so a failure is final: record it as an
      // error row and carry on (keep_going) or abort the run.
      if (!ok && !options_.keep_going) {
        abort_run(record.error);
        return;
      }
      // The row is durable before this worker claims its next job. A
      // store that cannot be written fails the campaign once — it is
      // not the job's fault, so it never becomes an error row.
      if (store_ != nullptr) {
        try {
          store_->append(record);
        } catch (const std::exception& e) {
          abort_run("store '" + store_->write_path() + "': " + e.what());
          return;
        }
      }
      if (ok) {
        results_[job.index] = std::move(record.metrics);
      } else {
        failed_jobs_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (first_failure_.empty()) {
          first_failure_ = record.error;
        }
      }
      if (tlog != nullptr) {
        trace_job(*tlog, job, tid, job_t0, ok);
      }
      progress_.tick();
    }
  }

  /// Runs one job. A failure (an exception, or the wrong number of
  /// metrics) comes back as an error record naming the job.
  store::StoreRecord compute(const Job& job) const {
    store::StoreRecord record;
    record.job_index = job.index;
    std::string what;
    try {
      record.metrics = spec_.run(job);
      if (record.metrics.size() == spec_.metrics.size()) {
        return record;
      }
      what = "returned " + std::to_string(record.metrics.size()) +
             " metrics, expected " + std::to_string(spec_.metrics.size());
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
      what = "non-standard exception";
    }
    record.metrics.clear();
    record.error = describe(spec_, job) + ": " + what;
    return record;
  }

  void trace_job(obs::TraceLog& tlog, const Job& job, int tid, double t0,
                 bool ok) const {
    const double now = tlog.now_us();
    const std::string id = std::to_string(job.index);
    if (!ok) {
      tlog.instant("fail", obs::kCampaignPid, tid, now,
                   "{\"job\": " + id + "}");
    }
    tlog.span(describe(spec_, job), obs::kCampaignPid, tid, t0, now - t0,
              "{\"job\": " + id + (ok ? "" : ", \"failed\": true") + "}");
  }

  void abort_run(const std::string& error) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!failed_.exchange(true)) {
      first_error_ = error;
    }
  }

  const ExperimentSpec& spec_;
  const RunnerOptions& options_;
  store::JsonlStore* const store_;
  const std::vector<std::size_t>& pending_;
  Progress& progress_;
  std::optional<obs::TraceLog> trace_;
  std::vector<std::vector<double>> results_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::size_t> failed_jobs_{0};
  std::mutex error_mutex_;
  std::string first_error_;    // guarded by error_mutex_
  std::string first_failure_;  // guarded by error_mutex_ (keep_going)
};

// ---- fold ---------------------------------------------------------------

/// Folds fresh and stored metrics in job order. Replicates of a cell
/// are contiguous, so each Accumulator sees its samples in replicate
/// order no matter how the pool (or an earlier stored run) interleaved
/// execution. Jobs with neither (failed under keep_going, or missing
/// from a keep_going merge) are skipped.
ExperimentResult fold(const ExperimentSpec& spec,
                      const std::vector<std::vector<double>>& fresh,
                      const StoredMetrics& stored) {
  ExperimentResult result(spec.title, spec.grid, spec.metrics);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const std::vector<double>* metrics = nullptr;
    if (!fresh[i].empty()) {
      metrics = &fresh[i];
    } else if (const auto it = stored.find(i); it != stored.end()) {
      metrics = &it->second;
    } else {
      continue;
    }
    const std::size_t cell = i / static_cast<std::size_t>(spec.replicates);
    auto& stats = result.cell(cell);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      stats.metrics[m].add((*metrics)[m]);
    }
  }
  return result;
}

}  // namespace

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

ExperimentResult Runner::run(const ExperimentSpec& spec) const {
  // ---- plan: validate the spec and the options -----------------------
  // Jobs are made from their index when a worker claims them (plan.hpp).
  if (!spec.run) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "' has no run function");
  }
  if (spec.metrics.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "' declares no metrics");
  }
  if (spec.replicates < 1) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "' needs replicates >= 1");
  }
  if (options_.merge_only && options_.cache_dir.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': merge mode requires a store directory");
  }

  // ---- store: load stored rows, list the jobs still to run -----------
  std::optional<store::JsonlStore> store;
  StoredMetrics stored;
  if (!options_.cache_dir.empty()) {
    store.emplace(options_.cache_dir, spec_fingerprint(spec));
    stored = store->load(spec.metrics.size());
  }
  const std::size_t n_jobs = spec.job_count();
  std::vector<std::size_t> pending;
  std::size_t merge_missing = 0;
  if (options_.merge_only) {
    merge_missing = check_merge(spec, options_, *store, stored);
  } else {
    pending.reserve(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      if (!stored.count(i)) {
        pending.push_back(i);
      }
    }
  }

  // ---- execute: pool over pending jobs, store + progress as we go ----
  Progress progress(spec.title, pending.size(), options_.progress,
                    kProgressIntervalS);
  // Count stored jobs by index: out-of-range rows (a hand-edited store)
  // are in `stored` but serve no job.
  const std::size_t n_stored =
      n_jobs - (options_.merge_only ? merge_missing : pending.size());
  if (n_stored > 0) {
    progress.note(std::to_string(n_stored) + "/" +
                  std::to_string(n_jobs) + " jobs stored, executing " +
                  std::to_string(pending.size()));
  }
  if (merge_missing > 0) {
    progress.note(std::to_string(merge_missing) + " job(s) missing from "
                  "the store; folding the partial result (--keep-going)");
  }
  Pool pool(spec, options_, store ? &*store : nullptr, pending, progress);
  const auto fresh = pool.run();

  // ---- fold: job-order fold over stored + fresh metrics --------------
  return fold(spec, fresh, stored);
}

ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  return Runner(options).run(spec);
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunnerOptions& options) {
  return Runner(options).run(spec);
}

RunnerOptions options_from_cli(const util::Cli& cli) {
  RunnerOptions options;
  options.jobs = cli.jobs();
  options.cache_dir = cli.get("cache");
  options.merge_only = cli.get_flag("merge");
  options.progress = cli.get_flag("progress");
  if (cli.has("keep-going")) {
    options.keep_going = cli.get_flag("keep-going");
  }
  options.trace_out = cli.get("trace-out");
  // Runner::run owns the merge/store consistency rule.
  return options;
}

int run_main(int argc, char** argv, std::map<std::string, std::string> defaults,
             const std::function<int(util::Cli&)>& body) {
  const std::string usage = util::Cli::usage(defaults);
  const std::string known = util::Cli::known_options(defaults);
  try {
    util::Cli cli(argc, argv, std::move(defaults));
    if (cli.help_requested()) {
      std::printf("usage: %s [--OPTION VALUE | --FLAG]...\n%s",
                  argc > 0 ? argv[0] : "bas", usage.c_str());
      return 0;
    }
    if (scenario::handle_list_request(cli)) {
      return 0;
    }
    // Output files are written after the campaign: a path that names a
    // directory, or whose directory does not exist, is rejected before
    // any job runs.
    for (const char* option : {"csv", "trace-out"}) {
      const std::string path = cli.has(option) ? cli.get(option) : "";
      if (std::filesystem::is_directory(path)) {
        throw std::invalid_argument("--" + std::string(option) + " " + path +
                                    ": is a directory");
      }
      const auto dir = std::filesystem::path(path).parent_path();
      if (!dir.empty() && !std::filesystem::is_directory(dir)) {
        throw std::invalid_argument("--" + std::string(option) + " " + path +
                                    ": directory '" + dir.string() +
                                    "' does not exist");
      }
    }
    return body(cli);
  } catch (const std::invalid_argument& e) {
    std::fflush(stdout);
    const std::string message = e.what();
    // The unknown-option message already lists the known options.
    const bool listed = message.find(known) != std::string::npos;
    std::fprintf(stderr, "error: %s\n%s", message.c_str(),
                 listed ? "" : usage.c_str());
    return 2;
  }
}

}  // namespace bas::exp
