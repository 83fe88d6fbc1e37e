#include "campaign.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>

#include "exp/runner.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The live fold and the merge-only fold must agree bit for bit.
bool same_result(const bas::exp::ExperimentResult& a,
                 const bas::exp::ExperimentResult& b) {
  if (a.cell_count() != b.cell_count()) {
    return false;
  }
  for (std::size_t c = 0; c < a.cell_count(); ++c) {
    for (std::size_t m = 0; m < a.metric_names().size(); ++m) {
      const auto& x = a.at(c, m);
      const auto& y = b.at(c, m);
      if (x.count() != y.count() || !same_bits(x.sum(), y.sum()) ||
          !same_bits(x.mean(), y.mean()) ||
          !same_bits(x.variance(), y.variance()) ||
          !same_bits(x.min(), y.min()) || !same_bits(x.max(), y.max())) {
        return false;
      }
    }
  }
  return true;
}

/// Worker threads are fresh per campaign; the generation makes a
/// thread's cached track id stale once its campaign ends.
std::atomic<std::uint64_t> g_generation{0};

int worker_track(std::uint64_t generation, std::atomic<int>& next) {
  thread_local std::uint64_t seen = 0;
  thread_local int tid = 0;
  if (seen != generation) {
    seen = generation;
    tid = next.fetch_add(1);
  }
  return tid;
}

}  // namespace

CampaignResult run_campaign(const std::string& workload, Size size,
                            const CampaignOptions& options) {
  CampaignResult out;
  const auto t_start = Clock::now();
  const double cpu0 = process_cpu_s();

  // ---- set-up: workload + platform, manifest, store, worker pool -----
  const Workload w = make_workload(workload, size);
  bas::exp::ExperimentSpec spec;
  spec.title = "perfbench " + w.name;
  spec.config = w.name;
  spec.grid = w.grid;
  spec.metrics = w.metrics;
  spec.replicates = w.replicates;
  spec.seed = options.seed;

  struct Slot {
    double start_s = 0.0;
    double end_s = 0.0;
    std::vector<double> metrics;
    std::string failure;
  };
  std::vector<Slot> slots(spec.job_count());
  std::mutex totals_mutex;
  const std::uint64_t generation = ++g_generation;
  std::atomic<int> next_track{0};

  spec.run = [&](const bas::exp::Job& job) {
    Slot& slot = slots.at(job.index);
    LayerTotals local;
    JobProbe probe;
    if (options.traced) {
      probe.totals = &local;
      probe.log = options.trace;
      probe.tid = worker_track(generation, next_track);
    }
    const double ts_us = probe.log != nullptr ? probe.log->now_us() : 0.0;
    // Runs on every exit path: folds the job's layer totals into the
    // campaign's and closes its span.
    struct Finish {
      const CampaignOptions& options;
      Slot& slot;
      LayerTotals& local;
      JobProbe& probe;
      double ts_us;
      Clock::time_point t_start;
      std::mutex& mutex;
      LayerTotals& totals;
      ~Finish() {
        slot.end_s = since(t_start, Clock::now());
        if (!options.traced) {
          return;
        }
        if (probe.log != nullptr) {
          probe.log->span("job", bas::obs::kCampaignPid, probe.tid, ts_us,
                          probe.log->now_us() - ts_us);
        }
        std::lock_guard<std::mutex> lock(mutex);
        totals += local;
      }
    };
    slot.start_s = since(t_start, Clock::now());
    Finish finish{options, slot,    local,       probe,
                  ts_us,   t_start, totals_mutex, out.totals};
    try {
      slot.metrics = w.run(job, probe);
    } catch (const std::exception& e) {
      slot.failure = e.what();
      throw;
    }
    if (slot.metrics.size() != w.metrics.size()) {
      slot.failure = "returned " + std::to_string(slot.metrics.size()) +
                     " metrics, expected " + std::to_string(w.metrics.size());
    } else if (std::string why = w.check(slot.metrics); !why.empty()) {
      slot.failure = std::move(why);
    }
    return slot.metrics;
  };

  bas::exp::RunnerOptions runner;
  runner.jobs = options.workers;
  runner.keep_going = true;
  if (w.use_store) {
    fs::remove_all(options.store_dir);
    runner.cache_dir = options.store_dir;
  }

  // ---- execute + collect ----------------------------------------------
  const auto result = bas::exp::Runner(runner).run(spec);
  if (w.use_store) {
    const auto m0 = Clock::now();
    runner.merge_only = true;
    const auto merged = bas::exp::Runner(runner).run(spec);
    out.merge_s = since(m0, Clock::now());
    out.store_roundtrip_ok = same_result(result, merged);
  }
  out.wall_s = since(t_start, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;

  // ---- bookkeeping outside the timed interval -------------------------
  if (w.use_store) {
    for (const auto& entry : fs::directory_iterator(options.store_dir)) {
      if (entry.path().extension() != ".jsonl") {
        continue;
      }
      out.store_bytes += entry.file_size();
      std::ifstream in(entry.path());
      for (std::string line; std::getline(in, line);) {
        ++out.store_records;
      }
    }
    fs::remove_all(options.store_dir);
  }

  out.setup_s = std::numeric_limits<double>::infinity();
  out.digest = 0xcbf29ce484222325ULL;
  out.job_s.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    const double latency = slot.end_s - slot.start_s;
    out.setup_s = std::min(out.setup_s, slot.start_s);
    out.job_s.push_back(latency);
    out.job_sum_s += latency;
    ++out.attempted;
    if (slot.failure.empty() && latency > kJobTimeoutS) {
      slot.failure = "timed out";
    }
    if (!slot.failure.empty()) {
      if (out.failed++ == 0) {
        out.first_failure = "job " + std::to_string(i) + ": " + slot.failure;
      }
    }
    if (options.perturb && i == 0 && !slot.metrics.empty()) {
      slot.metrics[0] = std::nextafter(
          slot.metrics[0], std::numeric_limits<double>::infinity());
    }
    const std::uint64_t arity = slot.metrics.size();
    fnv1a(out.digest, &arity, sizeof arity);
    for (const double v : slot.metrics) {
      fnv1a(out.digest, &v, sizeof v);
    }
  }
  if (!w.paper_lifetime_min.empty()) {
    for (std::size_t c = 0; c < result.cell_count(); ++c) {
      out.lifetime_min.push_back(result.mean(c, w.lifetime_metric));
    }
  }
  return out;
}

}  // namespace perfbench
