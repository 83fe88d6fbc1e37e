#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/progress.hpp"
#include "obs/trace_log.hpp"
#include "store/jsonl.hpp"
#include "util/cli.hpp"

namespace bas::exp {

namespace {

/// First retry delay; each further retry of the same job doubles it,
/// so transient failures (I/O hiccups, load-induced deadline misses)
/// get room to clear without hammering.
constexpr double kRetryBackoffS = 0.05;

/// Evaluates one job attempt under an optional wall-clock deadline.
/// With no deadline this is a plain call. With one, the attempt runs on
/// a helper thread; when the deadline passes the helper is abandoned
/// (detached — its state is shared_ptr-owned, so it finishes or dies
/// harmlessly in the background) and the attempt counts as failed.
std::vector<double> run_with_deadline(
    const std::function<std::vector<double>(const Job&)>& run, const Job& job,
    double timeout_s) {
  if (timeout_s <= 0.0) {
    return run(job);
  }
  struct Shared {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::vector<double> metrics;
    std::exception_ptr error;
    std::function<std::vector<double>(const Job&)> run;
    Job job;
  };
  auto state = std::make_shared<Shared>();
  state->run = run;
  state->job = job;
  std::thread helper([state] {
    std::vector<double> metrics;
    std::exception_ptr error;
    try {
      metrics = state->run(state->job);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(state->mutex);
    state->metrics = std::move(metrics);
    state->error = error;
    state->done = true;
    state->done_cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(state->mutex);
  const bool finished =
      state->done_cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                              [&] { return state->done; });
  if (!finished) {
    lock.unlock();
    helper.detach();
    throw std::runtime_error("exceeded the per-job deadline of " +
                             std::to_string(timeout_s) + "s");
  }
  lock.unlock();
  helper.join();
  if (state->error) {
    std::rethrow_exception(state->error);
  }
  return std::move(state->metrics);
}

}  // namespace

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

ExperimentResult Runner::run(const ExperimentSpec& spec) const {
  // ---- plan: manifest, fingerprint, option validation ----------------
  const Plan plan(spec);
  const std::size_t n_jobs = plan.job_count();

  if (options_.merge_only && options_.cache_dir.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': merge mode requires a store directory");
  }
  if (options_.compact_cache && options_.cache_dir.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': store compaction requires a store "
                                "directory");
  }
  if (options_.compact_cache && options_.shard) {
    // Compaction rewrites every writer's data; a shard run is by
    // definition one of several concurrent writers, so the combination
    // would silently discard the records its siblings are appending.
    // Compact from the lone coordinating process (--merge or a full
    // run) after the shards finish.
    throw std::invalid_argument("experiment '" + spec.title +
                                "': store compaction cannot run from a "
                                "shard (sibling shards may be appending); "
                                "compact from the merge step instead");
  }
  if (options_.merge_only && options_.shard) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': merge mode is incompatible with a shard");
  }
  if (options_.shard &&
      (options_.shard->count < 1 || options_.shard->index < 0 ||
       options_.shard->index >= options_.shard->count)) {
    throw std::invalid_argument(
        "experiment '" + spec.title + "': shard " +
        std::to_string(options_.shard->index) + "/" +
        std::to_string(options_.shard->count) + " needs 0 <= i < n");
  }
  if (options_.job_attempts < 1) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': job_attempts must be >= 1");
  }
  if (options_.job_timeout_s < 0.0) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': job_timeout_s must be >= 0");
  }

  std::optional<store::CompactionStats> compaction;
  if (options_.compact_cache) {
    compaction = store::compact_jsonl(options_.cache_dir, plan.fingerprint(),
                                      spec.metrics.size());
  }

  std::optional<store::JsonlStore> cache;
  std::map<std::size_t, std::vector<double>> cached;
  if (!options_.cache_dir.empty()) {
    std::string tag;
    if (options_.shard) {
      tag += 's';
      tag += std::to_string(options_.shard->index);
      tag += "of";
      tag += std::to_string(options_.shard->count);
    }
    cache.emplace(options_.cache_dir, plan.fingerprint(), tag);
    cached = cache->load(spec.metrics.size());
  }

  std::vector<std::size_t> pending;
  std::size_t merge_missing = 0;
  if (options_.merge_only) {
    // Check every index, not the record count: stray out-of-range
    // records (a hand-edited or corrupted store) must not mask a
    // genuinely missing job.
    std::size_t present = 0;
    std::size_t first_missing = n_jobs;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      if (cached.count(i)) {
        ++present;
      } else if (first_missing == n_jobs) {
        first_missing = i;
      }
    }
    merge_missing = n_jobs - present;
    if (present < n_jobs && !options_.keep_going) {
      std::string message =
          "experiment '" + spec.title + "': merge found only " +
          std::to_string(present) + " of " + std::to_string(n_jobs) +
          " jobs in store '" + options_.cache_dir + "' (first missing: " +
          plan.describe(plan.job(first_missing)) + ")";
      // Jobs that failed permanently under --keep-going left error rows
      // instead of metrics; say so rather than just "missing".
      const auto errors = cache->load_errors();
      std::size_t failed = 0;
      std::string first_error;
      for (const auto& [index, error] : errors) {
        if (index < n_jobs && !cached.count(index)) {
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
  } else {
    pending.reserve(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      if (options_.shard && !options_.shard->contains(i)) {
        continue;
      }
      if (cached.count(i)) {
        continue;
      }
      pending.push_back(i);
    }
  }

  // ---- execute: pool over pending jobs, store + progress as we go ----
  std::vector<std::vector<double>> results(n_jobs);
  Progress progress(spec.title, pending.size(), options_.progress,
                    options_.progress_interval_s);

  // Campaign trace (--trace-out): per-job spans on per-worker tracks and
  // retry/fail markers. The log is observational only — it never feeds
  // results or the store.
  std::optional<obs::TraceLog> trace;
  if (!options_.trace_out.empty()) {
    trace.emplace();
    trace->name_process(obs::kCampaignPid, "campaign: " + spec.title);
  }
  obs::TraceLog* const tlog = trace ? &*trace : nullptr;
  if (compaction) {
    progress.note("compacted store '" + options_.cache_dir + "': kept " +
                  std::to_string(compaction->records_kept) + " of " +
                  std::to_string(compaction->records_seen) + " records, " +
                  std::to_string(compaction->files_scanned) + " file(s) -> " +
                  (compaction->records_kept > 0 ? "1" : "0"));
  }
  if (!cached.empty()) {
    progress.note(std::to_string(cached.size()) + "/" +
                  std::to_string(n_jobs) + " jobs stored, executing " +
                  std::to_string(pending.size()));
  }
  if (options_.merge_only && merge_missing > 0) {
    progress.note(std::to_string(merge_missing) + " job(s) missing from "
                  "the store; folding the partial result (--keep-going)");
  }

  std::mutex error_mutex;
  std::string first_error;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> failed_jobs{0};
  std::string first_failure;  // guarded by error_mutex (keep_going path)
  auto abort_run = [&](const std::string& error) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!failed.exchange(true)) {
      first_error = error;
    }
  };

  int threads = options_.jobs;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, threads);
  const auto pool_size =
      std::min<std::size_t>(static_cast<std::size_t>(threads), pending.size());

  // Workers claim positions in `pending` from one shared cursor; results
  // land in job-indexed slots and are folded in job order afterwards, so
  // which worker computes a job never changes the result.
  std::atomic<std::size_t> next{0};

  auto work = [&](int tid) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t k = next.fetch_add(1);
      if (k >= pending.size()) {
        return;
      }
      const Job& job = plan.job(pending[k]);
      const double job_t0 = tlog != nullptr ? tlog->now_us() : 0.0;
      const int attempts = options_.job_attempts;
      store::StoreRecord record;
      record.job_index = job.index;
      bool ok = false;
      std::string what;
      int attempt = 1;
      for (;; ++attempt) {
        try {
          record.metrics =
              run_with_deadline(spec.run, job, options_.job_timeout_s);
          if (record.metrics.size() != spec.metrics.size()) {
            throw std::runtime_error(
                "returned " + std::to_string(record.metrics.size()) +
                " metrics, expected " + std::to_string(spec.metrics.size()));
          }
          ok = true;
          break;
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
          what = "non-standard exception";
        }
        if (attempt == attempts) {
          break;
        }
        if (tlog != nullptr) {
          tlog->instant("retry", obs::kCampaignPid, tid, tlog->now_us(),
                        "{\"job\": " + std::to_string(job.index) +
                            ", \"attempt\": " + std::to_string(attempt) +
                            "}");
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            kRetryBackoffS * static_cast<double>(1 << (attempt - 1))));
      }

      // Attempts exhausted: record the failure as an error row and
      // carry on (keep_going) or abort the run.
      if (!ok) {
        record.metrics.clear();
        record.error = plan.describe(job) + ": " + what +
                       (attempts > 1 ? " (after " + std::to_string(attempts) +
                                           " attempts)"
                                     : "");
        if (!options_.keep_going) {
          abort_run(record.error);
          return;
        }
      }
      // The row is durable before this worker claims its next job. A
      // store that cannot be written fails the campaign once — it is
      // not the job's fault, so it is never retried as one.
      if (cache) {
        try {
          cache->append(record);
        } catch (const std::exception& e) {
          abort_run("store '" + cache->write_path() + "': " + e.what());
          return;
        }
      }

      if (ok) {
        results[job.index] = std::move(record.metrics);
      } else {
        failed_jobs.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_failure.empty()) {
          first_failure = record.error;
        }
      }
      if (tlog != nullptr) {
        const double now = tlog->now_us();
        const std::string id = std::to_string(job.index);
        if (!ok) {
          tlog->instant("fail", obs::kCampaignPid, tid, now,
                        "{\"job\": " + id + "}");
        }
        tlog->span(plan.describe(job), obs::kCampaignPid, tid, job_t0,
                   now - job_t0,
                   "{\"job\": " + id +
                       (ok ? ", \"attempt\": " + std::to_string(attempt)
                           : std::string(", \"failed\": true")) +
                       "}");
      }
      progress.tick();
    }
  };

  if (pool_size <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) {
      pool.emplace_back(work, static_cast<int>(t));
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }

  // Write the campaign trace even when a job failed — a trace of the
  // run that died is exactly what the post-mortem wants.
  if (trace) {
    try {
      trace->write(options_.trace_out);
      progress.note("campaign trace (" + std::to_string(trace->size()) +
                    " events) written to '" + options_.trace_out + "'");
    } catch (const std::exception& e) {
      abort_run(e.what());
    }
  }

  if (failed.load()) {
    throw std::runtime_error("experiment '" + spec.title + "' failed at " +
                             first_error);
  }
  if (const std::size_t n_failed = failed_jobs.load(); n_failed > 0) {
    progress.note(std::to_string(n_failed) +
                  " job(s) failed permanently (first: " + first_failure +
                  "); their cells aggregate the surviving replicates and "
                  "the failures are recorded as error rows");
  }

  // ---- collect: job-order fold over stored + fresh metrics -----------
  // Replicates of a cell are contiguous, so each Accumulator sees its
  // samples in replicate order no matter how the pool (or an earlier
  // stored/sharded run) interleaved execution. Jobs outside this shard
  // and absent from the store are simply skipped, yielding the shard's
  // partial result.
  ExperimentResult result(spec.title, spec.grid, spec.metrics,
                          spec.replicates);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const std::vector<double>* metrics = nullptr;
    if (!results[i].empty()) {
      metrics = &results[i];
    } else if (const auto it = cached.find(i); it != cached.end()) {
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
  if (const auto shard = cli.get("shard"); !shard.empty()) {
    options.shard = parse_shard(shard);
  }
  options.cache_dir = cli.get("cache");
  options.merge_only = cli.get_flag("merge");
  options.compact_cache = cli.get_flag("cache-compact");
  options.progress = cli.get_flag("progress");
  if (cli.has("job-timeout")) {
    options.job_timeout_s = cli.get_double("job-timeout");
  }
  if (cli.has("job-attempts")) {
    options.job_attempts = static_cast<int>(cli.get_int("job-attempts"));
  }
  if (cli.has("keep-going")) {
    options.keep_going = cli.get_flag("keep-going");
  }
  if (cli.has("progress-interval")) {
    options.progress_interval_s = cli.get_double("progress-interval");
  }
  options.trace_out = cli.get("trace-out");
  // Runner::run owns the merge/store/shard consistency rules.
  return options;
}

}  // namespace bas::exp
