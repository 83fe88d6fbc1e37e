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
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "store/async_writer.hpp"
#include "store/jsonl.hpp"
#include "util/cli.hpp"

namespace bas::exp {

namespace {

/// Job distribution inside one shard: the pending list is split into
/// per-worker contiguous ranges, each claimed lock-free through its own
/// atomic cursor; a worker that exhausts its range steals from the
/// range with the most work left. Contiguous ranges keep a worker's
/// claims cache-local (replicates of a cell are adjacent in job order)
/// and spread cursor contention across workers; stealing keeps every
/// thread busy when cell costs are uneven (overload vs idle-heavy
/// scenarios). Determinism is untouched: stealing changes who computes
/// a job, never what it computes — results land in job-indexed slots
/// and are folded in job order afterwards.
class WorkQueue {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  WorkQueue(std::size_t total, std::size_t workers)
      : worker_count_(std::max<std::size_t>(1, workers)),
        ranges_(std::make_unique<Range[]>(worker_count_)) {
    const std::size_t base = total / worker_count_;
    const std::size_t extra = total % worker_count_;
    std::size_t begin = 0;
    for (std::size_t w = 0; w < worker_count_; ++w) {
      const std::size_t len = base + (w < extra ? 1 : 0);
      ranges_[w].next.store(begin, std::memory_order_relaxed);
      ranges_[w].end = begin + len;
      begin += len;
    }
  }

  /// Claims the next position in [0, total), or npos when every range
  /// is exhausted. Each position is returned exactly once. `stole`,
  /// when non-null, reports whether the claim came from another
  /// worker's range — the campaign trace marks those.
  std::size_t claim(std::size_t worker, bool* stole = nullptr) {
    if (stole != nullptr) {
      *stole = false;
    }
    if (const std::size_t k = take(worker % worker_count_); k != npos) {
      return k;
    }
    if (stole != nullptr) {
      *stole = true;
    }
    // Steal from the victim with the most remaining work; rescan on a
    // lost race until everything is exhausted.
    for (;;) {
      std::size_t best = npos;
      std::size_t best_left = 0;
      for (std::size_t w = 0; w < worker_count_; ++w) {
        const std::size_t next = ranges_[w].next.load(std::memory_order_relaxed);
        const std::size_t left = next < ranges_[w].end ? ranges_[w].end - next : 0;
        if (left > best_left) {
          best_left = left;
          best = w;
        }
      }
      if (best == npos) {
        return npos;
      }
      if (const std::size_t k = take(best); k != npos) {
        return k;
      }
    }
  }

 private:
  /// Padded so neighbouring cursors never share a cache line.
  struct alignas(64) Range {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  std::size_t take(std::size_t w) {
    Range& range = ranges_[w];
    if (range.next.load(std::memory_order_relaxed) >= range.end) {
      return npos;
    }
    // fetch_add may overshoot past `end` when claimants race; the
    // cursor only grows, so an overshot claim is simply rejected and
    // no position is handed out twice.
    const std::size_t k = range.next.fetch_add(1, std::memory_order_relaxed);
    return k < range.end ? k : npos;
  }

  std::size_t worker_count_;
  std::unique_ptr<Range[]> ranges_;
};

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

  // Campaign trace (--trace-out): per-job spans on per-worker tracks,
  // retry/steal/fail markers, the writer's queue-depth counter. The log
  // is observational only — it never feeds results or the store.
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

  std::optional<store::AsyncWriter> writer;
  if (cache && !pending.empty()) {
    writer.emplace(*cache, options_.writer_queue_capacity, tlog);
    // Heartbeat suffix: a metrics-registry snapshot of the writer
    // counters, so the heartbeat and BENCH_perf.json speak the same
    // metric names.
    progress.set_stats([&writer] {
      obs::Metrics metrics;
      obs::fill(metrics, writer->stats());
      return metrics.render_compact();
    });
  }

  std::mutex error_mutex;
  std::string first_error;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> failed_jobs{0};
  std::string first_failure;  // guarded by error_mutex (keep_going path)

  int threads = options_.jobs;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, threads);
  const auto pool_size =
      std::min<std::size_t>(static_cast<std::size_t>(threads), pending.size());

  WorkQueue queue(pending.size(), pool_size);

  auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      bool stole = false;
      const std::size_t k = queue.claim(worker, &stole);
      if (k == WorkQueue::npos) {
        return;
      }
      const Job& job = plan.job(pending[k]);
      const int tid = static_cast<int>(worker);
      if (tlog != nullptr && stole) {
        tlog->instant("steal", obs::kCampaignPid, tid,
                      tlog->now_us(),
                      "{\"job\": " + std::to_string(job.index) + "}");
      }
      const double job_t0 = tlog != nullptr ? tlog->now_us() : 0.0;
      const int attempts = options_.job_attempts;
      for (int attempt = 1; attempt <= attempts; ++attempt) {
        std::string what;
        try {
          auto metrics =
              run_with_deadline(spec.run, job, options_.job_timeout_s);
          if (metrics.size() != spec.metrics.size()) {
            throw std::runtime_error(
                "returned " + std::to_string(metrics.size()) +
                " metrics, expected " + std::to_string(spec.metrics.size()));
          }
          if (writer) {
            store::StoreRecord record;
            record.job_index = job.index;
            record.metrics = metrics;
            writer->enqueue(std::move(record));
          }
          results[job.index] = std::move(metrics);
          if (tlog != nullptr) {
            const double now = tlog->now_us();
            tlog->span(plan.describe(job), obs::kCampaignPid, tid, job_t0,
                       now - job_t0,
                       "{\"job\": " + std::to_string(job.index) +
                           ", \"attempt\": " + std::to_string(attempt) + "}");
          }
          progress.tick();
          break;
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
          what = "non-standard exception";
        }
        if (attempt < attempts) {
          if (tlog != nullptr) {
            tlog->instant("retry", obs::kCampaignPid, tid, tlog->now_us(),
                          "{\"job\": " + std::to_string(job.index) +
                              ", \"attempt\": " + std::to_string(attempt) +
                              "}");
          }
          // Exponential backoff before the retry: transient failures
          // (I/O hiccups, load-induced deadline misses) get room to
          // clear without hammering.
          const double backoff =
              options_.retry_backoff_s * static_cast<double>(1 << (attempt - 1));
          if (backoff > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
          }
          continue;
        }
        // Attempts exhausted: record the failure and either carry on
        // (keep_going) or abort the run.
        const std::string described =
            plan.describe(job) + ": " + what +
            (attempts > 1 ? " (after " + std::to_string(attempts) +
                                " attempts)"
                          : "");
        if (options_.keep_going) {
          try {
            if (writer) {
              store::StoreRecord record;
              record.job_index = job.index;
              record.error = described;
              writer->enqueue(std::move(record));
            }
            failed_jobs.fetch_add(1, std::memory_order_relaxed);
            {
              std::lock_guard<std::mutex> lock(error_mutex);
              if (first_failure.empty()) {
                first_failure = described;
              }
            }
            if (tlog != nullptr) {
              const double now = tlog->now_us();
              tlog->instant("fail", obs::kCampaignPid, tid, now,
                            "{\"job\": " + std::to_string(job.index) + "}");
              tlog->span(plan.describe(job), obs::kCampaignPid, tid, job_t0,
                         now - job_t0,
                         "{\"job\": " + std::to_string(job.index) +
                             ", \"failed\": true}");
            }
            progress.tick();
            break;
          } catch (const std::exception& e) {
            // The store itself failed — that is fatal even under
            // keep_going; fall through to the abort path.
            what = e.what();
          }
        }
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) {
          first_error = options_.keep_going
                            ? plan.describe(job) + ": " + what
                            : described;
        }
        return;
      }
    }
  };

  if (pool_size <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) {
      pool.emplace_back(work, t);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }

  // Drain the writer before reporting anything: a campaign is not done
  // until its rows are durable, and a store failure must surface on
  // this thread with the experiment's name attached.
  if (writer) {
    try {
      writer->drain();
    } catch (const std::exception& e) {
      if (!failed.exchange(true)) {
        first_error = e.what();
      }
    }
    const auto stats = writer->stats();
    progress.set_stats({});
    progress.note("store '" + cache->describe() + "': " +
                  std::to_string(stats.written) + " row(s) in " +
                  std::to_string(stats.batches) + " batch(es), " +
                  stats.summary());
    writer.reset();
  }

  // Write the campaign trace even when a job failed — a trace of the
  // run that died is exactly what the post-mortem wants.
  if (trace) {
    try {
      trace->write(options_.trace_out);
      progress.note("campaign trace (" + std::to_string(trace->size()) +
                    " events) written to '" + options_.trace_out + "'");
    } catch (const std::exception& e) {
      if (!failed.exchange(true)) {
        first_error = e.what();
      }
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
