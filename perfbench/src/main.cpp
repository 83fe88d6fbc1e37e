// perfbench: end-to-end campaign benchmark of the battery-aware
// scheduling simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--scratch DIR] [--perturb]
//             [--trace-out PATH]
//
// Runs the workload's campaign (workloads.hpp) back to back until S
// seconds have passed and prints, per campaign, its wall time and result
// digest, then every metric by name and unit, then one JSON line:
//
//   --trace 0  end-to-end metrics: medians over the campaigns (job
//              latency percentiles pool every job of every campaign)
//   --trace 1  per-layer metrics: campaigns run in (untraced, traced)
//              pairs; the traced one installs the layer hooks
//              (layers.hpp) and its digest must equal the untraced one
//
// Outputs are correct when every campaign's digest equals the first
// one's (with --size smoke the first is a 1-worker run, so N workers are
// checked against 1) and the store read-back matches the live fold.
// Exit status: 0 correct, 1 incorrect (result still printed), 2 usage or
// set-up error (nothing printed on stdout).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign.hpp"
#include "util/stats.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  int workers = 1;
  std::string scratch = ".bench_build/perfbench/run";
  bool perturb = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (flag == "--size") {
      const std::string size = value();
      if (size != "full" && size != "smoke") {
        throw std::invalid_argument("--size expects full or smoke");
      }
      a.size = size == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--scratch") {
      a.scratch = value();
    } else if (flag == "--perturb") {
      a.perturb = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  // At most 4 workers (the machine the sizes were chosen on), never
  // more than the cores present.
  a.workers = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  return a;
}

double median(std::vector<double> v) {
  bas::util::Sample s;
  for (const double x : v) {
    s.add(x);
  }
  return s.median();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics of one (untraced, traced) pair: exp and store from
/// the untraced campaign, everything timed per layer from the traced one.
std::vector<Metric> layer_metrics(const CampaignResult& plain,
                                  const CampaignResult& traced, int workers) {
  const LayerTotals& t = traced.totals;
  const double run_s = t.seconds(Layer::kSimRun);
  const double score_s = t.seconds(Layer::kScore);
  const double estimate_s = t.seconds(Layer::kEstimate);
  const double select_s = t.seconds(Layer::kSelect);
  const double battery_s = t.seconds(Layer::kBattery);
  const double sim_self_s = run_s - score_s - estimate_s - select_s - battery_s;
  // Self times of the layers, summed: sim.run's self time plus its four
  // children is the whole run span.
  const double covered_s = t.seconds(Layer::kTgff) +
                           t.seconds(Layer::kSimCtor) + run_s +
                           t.seconds(Layer::kNearOpt);
  const double steps = static_cast<double>(t.steps);
  const double capacity_s = plain.wall_s * workers;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"exp.jobs", n(plain.attempted), "count"},
      {"exp.job_sum_s", plain.job_sum_s, "s"},
      {"exp.parallel_eff", ratio(plain.job_sum_s, capacity_s), "ratio"},
      {"exp.idle_s", capacity_s - plain.job_sum_s, "s"},
      {"store.records", n(plain.store_records), "count"},
      {"store.bytes", n(plain.store_bytes), "B"},
      {"store.merge_s", plain.merge_s, "s"},
      {"tgff.gen_s", t.seconds(Layer::kTgff), "s"},
      {"tgff.nodes", n(t.tgff_nodes), "count"},
      {"sim.steps", steps, "count"},
      {"sim.events_popped", n(t.events_popped), "count"},
      {"sim.edf_incremental_ops", n(t.edf_incremental_ops), "count"},
      {"sim.scratch_grows", n(t.scratch_grows), "count"},
      {"sim.ctor_s", t.seconds(Layer::kSimCtor), "s"},
      {"sim.self_s", sim_self_s, "s"},
      {"sim.ns_per_step", ratio(1e9 * sim_self_s, steps), "ns"},
      {"sched.candidates_scored", n(t.candidates_scored), "count"},
      {"sched.cand_per_step", ratio(n(t.candidates_scored), steps), "1/step"},
      {"sched.score_s", score_s, "s"},
      {"sched.estimate_s", estimate_s, "s"},
      {"dvs.select_calls", n(t.count(Layer::kSelect)), "count"},
      {"dvs.select_s", select_s, "s"},
      {"battery.draws", n(t.battery_draws), "count"},
      {"battery.interval_advances", n(t.battery_interval_advances), "count"},
      {"battery.k_exp_calls", n(t.k_exp_calls), "count"},
      {"battery.self_s", battery_s, "s"},
      {"battery.share", ratio(battery_s, traced.job_sum_s), "ratio"},
      {"analysis.near_opt_s", t.seconds(Layer::kNearOpt), "s"},
      {"trace.overhead_s", traced.wall_s - plain.wall_s, "s"},
      {"trace.coverage", ratio(covered_s, traced.job_sum_s), "ratio"},
  };
}

/// The layer-separation prediction each workload was chosen for
/// (BENCHMARK.json); reported, not part of correctness.
std::string prediction(const std::string& workload,
                       const std::map<std::string, double>& m) {
  if (workload == "table2-kibam") {
    return std::string("battery.share <= 0.05: ") +
           (m.at("battery.share") <= 0.05 ? "holds" : "FAILS");
  }
  if (workload == "idle-stochastic") {
    return std::string("battery.share >= 0.5: ") +
           (m.at("battery.share") >= 0.5 ? "holds" : "FAILS");
  }
  return std::string("battery.draws == 0: ") +
         (m.at("battery.draws") == 0.0 ? "holds" : "FAILS") +
         " (sched.cand_per_step is compared against table2-kibam's by "
         "test_bench.py)";
}

void print_metric(const Metric& m) {
  std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
}

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int run(const Args& args) {
  const std::string store_dir = args.scratch + "/store-" + args.workload +
                                "-" + std::to_string(getpid());
  std::filesystem::create_directories(args.scratch);
  std::printf("perfbench %s: seed %llu, %d workers, %s size, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.workers,
              args.size == Size::kSmoke ? "smoke" : "full",
              args.trace ? 1 : 0);
  if (args.trace) {
    std::printf("timer overhead per timed call: %.1f ns (subtracted)\n",
                timer_overhead_ns());
  }

  std::optional<std::uint64_t> reference;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  int campaigns = 0;
  std::optional<bas::obs::TraceLog> log;

  auto campaign = [&](int workers, bool traced, const char* label) {
    CampaignOptions options;
    options.seed = args.seed;
    options.workers = workers;
    options.traced = traced;
    options.store_dir = store_dir;
    options.perturb = args.perturb && campaigns > 0;
    if (traced && !args.trace_out.empty()) {
      log.emplace();  // keep the last traced campaign's spans
      options.trace = &*log;
    }
    CampaignResult r = run_campaign(args.workload, args.size, options);
    ++campaigns;
    attempted += r.attempted;
    failed += r.failed;
    if (first_failure.empty()) {
      first_failure = r.first_failure;
    }
    std::printf(
        "campaign %d (%s, %d workers): wall %.4f s, cpu %.4f s, setup %.6f "
        "s, %zu jobs, %zu failed, digest %016llx\n",
        campaigns, label, workers, r.wall_s, r.cpu_s, r.setup_s, r.attempted,
        r.failed, static_cast<unsigned long long>(r.digest));
    if (!reference) {
      reference = r.digest;
    } else if (r.digest != *reference) {
      problems.push_back(std::string("campaign ") + std::to_string(campaigns) +
                         " (" + label + ") digest differs from campaign 1");
    }
    if (!r.store_roundtrip_ok) {
      problems.push_back("campaign " + std::to_string(campaigns) +
                         ": merge-only store read-back differs from the "
                         "live result");
    }
    return r;
  };

  if (args.size == Size::kSmoke) {
    campaign(1, false, "1-worker reference");
  }
  std::vector<CampaignResult> plain;
  std::vector<CampaignResult> traced;
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Closed loop: the next campaign starts when the previous one ends.
  // Start another only while it is expected to finish inside the budget
  // (untraced runs need two campaigns for the repetition check).
  for (;;) {
    plain.push_back(campaign(args.workers, false, "untraced"));
    double last = plain.back().wall_s;
    if (args.trace) {
      traced.push_back(campaign(args.workers, true, "traced"));
      last += traced.back().wall_s;
    }
    const bool enough = args.trace || plain.size() >= 2;
    if (enough && elapsed() + last > args.seconds) {
      break;
    }
  }
  if (log) {
    log->write(args.trace_out);
    std::printf("trace of the last traced campaign written to %s\n",
                args.trace_out.c_str());
  }

  const bool correct = problems.empty();
  for (const auto& p : problems) {
    std::printf("INCORRECT: %s\n", p.c_str());
  }
  if (failed > 0) {
    std::printf("first failed job: %s\n", first_failure.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    bas::util::Sample latency_ms;
    std::vector<double> wall, cpu, setup;
    for (const auto& r : plain) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      setup.push_back(r.setup_s);
      for (const double s : r.job_s) {
        latency_ms.add(1e3 * s);
      }
    }
    metrics = {
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"job_p50_ms", latency_ms.quantile(0.5), "ms"},
        {"job_p90_ms", latency_ms.quantile(0.9), "ms"},
    };
    std::printf("end-to-end (median of %zu campaigns; %zu job samples):\n",
                plain.size(), latency_ms.count());
    for (const auto& m : metrics) {
      print_metric(m);
    }
    print_metric({"job_fail_ratio",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio"});
    const Workload w = make_workload(args.workload, args.size);
    const auto& ours = plain.front().lifetime_min;
    if (!w.paper_lifetime_min.empty() &&
        ours.size() == w.paper_lifetime_min.size()) {
      double err = 0.0;
      std::printf("  lifetime (min), ours vs paper:");
      for (std::size_t k = 0; k < ours.size(); ++k) {
        std::printf(" %.1f/%.0f", ours[k], w.paper_lifetime_min[k]);
        err += std::fabs(ours[k] - w.paper_lifetime_min[k]) /
               w.paper_lifetime_min[k];
      }
      std::printf("\n");
      print_metric({"paper_lifetime_err_pct",
                    100.0 * err / static_cast<double>(ours.size()), "%"});
    }
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (const auto& m : layer_metrics(plain[i], traced[i], args.workers)) {
        samples[m.name].push_back(m.value);
      }
    }
    std::map<std::string, double> medians;
    for (auto m : layer_metrics(plain[0], traced[0], args.workers)) {
      m.value = median(samples[m.name]);
      medians[m.name] = m.value;
      metrics.push_back(m);
    }
    std::printf("per-layer (median of %zu traced campaigns):\n",
                traced.size());
    for (const auto& m : metrics) {
      print_metric(m);
    }
    std::printf("layer coverage >= 0.9 of traced job time: %s\n",
                medians.at("trace.coverage") >= 0.9 ? "holds" : "FAILS");
    std::printf("prediction %s\n",
                prediction(args.workload, medians).c_str());
  }
  std::printf("digest %016llx: %s\n",
              static_cast<unsigned long long>(reference.value_or(0)),
              correct ? "identical across campaigns" : "MISMATCH");
  std::printf("%s\n",
              json_result(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
