// Scheduler overhead microbenchmarks.
//
// The paper argues its two-step methodology is cheap enough for dynamic
// (online) use, unlike cost-function optimization over battery models.
// These benchmarks measure the per-decision costs: frequency selection
// (ccEDF / laEDF), pUBS scoring, the feasibility check, and a whole
// simulated second of BAS-2 scheduling.
//
// The timer harness below is a small steady_clock loop with a
// google-benchmark-shaped surface (State iteration, range(0),
// DoNotOptimize, the BENCHMARK registration macros): each instance is
// calibrated until its timed region lasts >= 50 ms, then reported as
// ns/op.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace benchmark {

/// Range-for drives the measured loop exactly like google-benchmark's
/// State: `for (auto _ : state)` runs a preset number of iterations.
class State {
 public:
  State(std::int64_t iterations, std::vector<std::int64_t> ranges)
      : iterations_(iterations), ranges_(std::move(ranges)) {}

  /// The `unused` attribute keeps `for (auto _ : state)` free of
  /// -Wunused warnings (google-benchmark does the same).
  struct __attribute__((unused)) Value {};
  struct Iterator {
    std::int64_t left;
    bool operator!=(const Iterator& other) const { return left != other.left; }
    void operator++() { --left; }
    Value operator*() const { return Value{}; }
  };
  Iterator begin() const { return {iterations_}; }
  Iterator end() const { return {0}; }

  std::int64_t range(std::size_t i = 0) const { return ranges_.at(i); }

 private:
  std::int64_t iterations_;
  std::vector<std::int64_t> ranges_;
};

template <class T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

struct Registration {
  std::string name;
  void (*fn)(State&);
  std::vector<std::int64_t> args;  // one timed instance per arg; empty = one

  Registration* Arg(std::int64_t arg) {
    args.push_back(arg);
    return this;
  }
};

inline std::vector<Registration*>& registry() {
  static std::vector<Registration*> benchmarks;
  return benchmarks;
}

inline Registration* register_benchmark(const char* name, void (*fn)(State&)) {
  auto* registration = new Registration{name, fn, {}};
  registry().push_back(registration);
  return registration;
}

inline double time_once(void (*fn)(State&),
                        const std::vector<std::int64_t>& ranges,
                        std::int64_t iterations) {
  State state(iterations, ranges);
  const auto start = std::chrono::steady_clock::now();
  fn(state);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline void run_instance(const Registration& registration,
                         const std::vector<std::int64_t>& ranges,
                         const std::string& label) {
  // Calibrate: grow the iteration count until the timed region is long
  // enough (>= 50 ms) to swamp clock granularity.
  std::int64_t iterations = 1;
  double elapsed = time_once(registration.fn, ranges, iterations);
  while (elapsed < 0.05 && iterations < (std::int64_t{1} << 40)) {
    const double target = 0.1;
    std::int64_t next =
        elapsed > 0.0
            ? static_cast<std::int64_t>(iterations * (target / elapsed) + 1)
            : iterations * 10;
    next = std::min(next, iterations * 10);
    iterations = std::max(next, iterations + 1);
    elapsed = time_once(registration.fn, ranges, iterations);
  }
  std::printf("%-32s %14.1f ns/op %12lld iters\n", label.c_str(),
              1e9 * elapsed / static_cast<double>(iterations),
              static_cast<long long>(iterations));
}

inline void run_all() {
  std::printf("%-32s %20s %18s\n", "benchmark", "time", "iterations");
  std::printf("%s\n", std::string(66, '-').c_str());
  for (const auto* registration : registry()) {
    if (registration->args.empty()) {
      run_instance(*registration, {}, registration->name);
    } else {
      for (const auto arg : registration->args) {
        run_instance(*registration, {arg},
                     registration->name + "/" + std::to_string(arg));
      }
    }
  }
}

}  // namespace benchmark

#define BENCHMARK(fn)                                \
  static ::benchmark::Registration* fn##_registration \
      [[maybe_unused]] = ::benchmark::register_benchmark(#fn, fn)
#define BENCHMARK_MAIN() \
  int main() {           \
    ::benchmark::run_all(); \
    return 0;            \
  }

#include "core/scheme.hpp"
#include "dvs/policy.hpp"
#include "dvs/realizer.hpp"
#include "scenario/scenario.hpp"
#include "sched/feasibility.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sort.hpp"

namespace {

using namespace bas;

std::vector<dvs::GraphStatus> make_statuses(int n) {
  std::vector<dvs::GraphStatus> statuses;
  util::Rng rng(5);
  for (int g = 0; g < n; ++g) {
    dvs::GraphStatus s;
    s.graph = g;
    s.period_s = rng.uniform(0.1, 1.0);
    s.abs_deadline_s = s.period_s;
    s.wc_total_cycles = rng.uniform(1e7, 1e8);
    s.cc_wc_cycles = s.wc_total_cycles * rng.uniform(0.5, 1.0);
    s.remaining_wc_cycles = s.cc_wc_cycles * rng.uniform(0.2, 1.0);
    statuses.push_back(s);
  }
  return statuses;
}

void BM_CcEdfSelect(benchmark::State& state) {
  auto policy = dvs::make_cc_edf(1e9);
  const auto statuses = make_statuses(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(statuses, 0.01));
  }
}
BENCHMARK(BM_CcEdfSelect)->Arg(3)->Arg(10)->Arg(30);

void BM_LaEdfSelect(benchmark::State& state) {
  auto policy = dvs::make_la_edf(1e9);
  const auto statuses = make_statuses(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(statuses, 0.01));
  }
}
BENCHMARK(BM_LaEdfSelect)->Arg(3)->Arg(10)->Arg(30);

void BM_PubsScore(benchmark::State& state) {
  auto pubs = sched::make_pubs_priority();
  sched::Candidate c;
  c.wc_cycles = 1e7;
  c.estimate_cycles = 6e6;
  c.actual_cycles = 5e6;
  c.graph_abs_deadline_s = 1.0;
  c.graph_remaining_wc_cycles = 5e7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubs->score(c, 0.1));
  }
}
BENCHMARK(BM_PubsScore);

void BM_FeasibilityCheck(benchmark::State& state) {
  auto statuses = make_statuses(static_cast<int>(state.range(0)));
  std::sort(statuses.begin(), statuses.end(),
            [](const dvs::GraphStatus& a, const dvs::GraphStatus& b) {
              return a.abs_deadline_s < b.abs_deadline_s;
            });
  const int pos = static_cast<int>(statuses.size()) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::feasibility_check(statuses, pos, 1e6, 8e8, 0.01));
  }
}
BENCHMARK(BM_FeasibilityCheck)->Arg(3)->Arg(10)->Arg(30);

void BM_Realize(benchmark::State& state) {
  const auto proc = scenario::make_processor("paper");
  double f = 0.51e9;
  for (auto _ : state) {
    f = f > 0.99e9 ? 0.51e9 : f + 1e6;
    benchmark::DoNotOptimize(dvs::realize(proc, f));
  }
}
BENCHMARK(BM_Realize);

void BM_EdfMaintainIncremental(benchmark::State& state) {
  // The event engine's maintained EDF order: one lower_bound insert at
  // release, one erase at completion, against a list of `n` incomplete
  // graphs. Deterministic churn (LCG) so every build times identical
  // work. Compare with BM_EdfRebuildFull at the same n — the per-step
  // cost the incremental path replaces.
  const int n = static_cast<int>(state.range(0));
  std::vector<double> deadlines(static_cast<std::size_t>(n));
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) / 9.0e18;
  };
  for (auto& d : deadlines) {
    d = next();
  }
  const auto less = [&deadlines](int a, int b) {
    const double da = deadlines[static_cast<std::size_t>(a)];
    const double db = deadlines[static_cast<std::size_t>(b)];
    return da != db ? da < db : a < b;
  };
  std::vector<int> edf;
  edf.reserve(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    util::insert_sorted(edf, g, less);
  }
  int g = 0;
  for (auto _ : state) {
    // One release + one completion of a random graph: erase, re-key,
    // re-insert — the steady-state churn of a saturated decision loop.
    edf.erase(std::find(edf.begin(), edf.end(), g));
    deadlines[static_cast<std::size_t>(g)] = next();
    util::insert_sorted(edf, g, less);
    benchmark::DoNotOptimize(edf.data());
    g = (g + 1) % n;
  }
}
BENCHMARK(BM_EdfMaintainIncremental)->Arg(8)->Arg(64)->Arg(256);

void BM_EdfRebuildFull(benchmark::State& state) {
  // What the decision point used to do before the incremental order:
  // rebuild the candidate list and insertion_sort it from scratch,
  // every step, on the same churn as BM_EdfMaintainIncremental.
  const int n = static_cast<int>(state.range(0));
  std::vector<double> deadlines(static_cast<std::size_t>(n));
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) / 9.0e18;
  };
  for (auto& d : deadlines) {
    d = next();
  }
  const auto less = [&deadlines](int a, int b) {
    const double da = deadlines[static_cast<std::size_t>(a)];
    const double db = deadlines[static_cast<std::size_t>(b)];
    return da != db ? da < db : a < b;
  };
  std::vector<int> edf;
  int g = 0;
  for (auto _ : state) {
    deadlines[static_cast<std::size_t>(g)] = next();
    edf.clear();
    for (int i = 0; i < n; ++i) {
      edf.push_back(i);
    }
    util::insertion_sort(edf, less);
    benchmark::DoNotOptimize(edf.data());
    g = (g + 1) % n;
  }
}
BENCHMARK(BM_EdfRebuildFull)->Arg(8)->Arg(64)->Arg(256);

void BM_SimulatedSecondBas2(benchmark::State& state) {
  // The multimedia scenario's short frame periods pack the densest
  // decision stream per simulated second of any preset.
  util::Rng rng(9);
  auto scn = scenario::scenario("multimedia-pipeline");
  scn.workload.graph_count = static_cast<int>(state.range(0));
  const auto set = scn.make_workload(rng);
  const auto proc = scn.make_processor();
  for (auto _ : state) {
    sim::SimConfig config = scn.sim_config(1);
    config.horizon_s = 1.0;
    config.drain = true;
    core::Scheme scheme =
        core::make_scheme(core::SchemeKind::kBas2, proc.fmax_hz(), 1);
    sim::Simulator sim(set, proc, scheme, config);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulatedSecondBas2)->Arg(3)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
