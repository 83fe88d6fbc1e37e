// Tests for the experiment engine: grid expansion, seed derivation,
// thread-count-independent determinism, sinks, and the shared bench CLI
// options.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "tgff/workload.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

// ---------------------------------------------------------------- Grid

TEST(Grid, CellCountIsAxisProduct) {
  exp::Grid grid;
  EXPECT_EQ(grid.cell_count(), 1u);  // axis-free grid: one cell
  grid.add("a", {"x", "y"}).add("b", {"p", "q", "r"});
  EXPECT_EQ(grid.axis_count(), 2u);
  EXPECT_EQ(grid.cell_count(), 6u);
}

TEST(Grid, LastAxisVariesFastest) {
  exp::Grid grid;
  grid.add("a", {"a0", "a1"}).add("b", {"b0", "b1", "b2"});
  EXPECT_EQ(grid.coord(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(grid.coord(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(grid.coord(2), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(grid.coord(3), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(grid.coord(5), (std::vector<std::size_t>{1, 2}));
}

TEST(Grid, IndexInvertsCoord) {
  exp::Grid grid;
  grid.add("a", {"a0", "a1"}).add("b", {"b0", "b1", "b2"}).add("c",
                                                               {"c0", "c1"});
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    EXPECT_EQ(grid.index(grid.coord(cell)), cell);
  }
}

TEST(Grid, LabelsFollowCoord) {
  exp::Grid grid;
  grid.add("a", {"a0", "a1"}).add("b", {"b0", "b1", "b2"});
  EXPECT_EQ(grid.labels(4), (std::vector<std::string>{"a1", "b1"}));
}

TEST(Grid, RejectsMalformedAxes) {
  exp::Grid grid;
  EXPECT_THROW(grid.add("", {"x"}), std::invalid_argument);
  EXPECT_THROW(grid.add("a", {}), std::invalid_argument);
  grid.add("a", {"x"});
  EXPECT_THROW(grid.coord(1), std::out_of_range);
  EXPECT_THROW(grid.index({1}), std::out_of_range);
  EXPECT_THROW(grid.index({0, 0}), std::out_of_range);
}

// ------------------------------------------------------- seed derivation

TEST(DeriveSeed, DeterministicAndSensitiveToEveryTag) {
  EXPECT_EQ(util::derive_seed(1, {2, 3}), util::derive_seed(1, {2, 3}));
  EXPECT_NE(util::derive_seed(1, {2, 3}), util::derive_seed(1, {3, 2}));
  EXPECT_NE(util::derive_seed(1, {2, 3}), util::derive_seed(2, {2, 3}));
  EXPECT_NE(util::derive_seed(1, {2}), util::derive_seed(1, {2, 0}));
}

TEST(Runner, JobSeedsFollowTheContract) {
  exp::ExperimentSpec spec;
  spec.title = "seed-audit";
  spec.grid.add("axis", {"v0", "v1", "v2"});
  spec.metrics = {"zero"};
  spec.replicates = 2;
  spec.seed = 99;

  std::mutex mutex;
  std::map<std::size_t, exp::Job> jobs;
  spec.run = [&](const exp::Job& job) {
    std::lock_guard<std::mutex> lock(mutex);
    jobs[job.index] = job;
    return std::vector<double>{0.0};
  };
  exp::run_experiment(spec, 3);

  ASSERT_EQ(jobs.size(), 6u);
  // Replicates of a cell are contiguous: index = cell * replicates + rep.
  EXPECT_EQ(jobs[3].cell, 1u);
  EXPECT_EQ(jobs[3].replicate, 1);
  // replicate_seed is shared across cells (common random numbers)...
  EXPECT_EQ(jobs[0].replicate_seed, jobs[2].replicate_seed);
  EXPECT_EQ(jobs[0].replicate_seed, jobs[4].replicate_seed);
  EXPECT_NE(jobs[0].replicate_seed, jobs[1].replicate_seed);
  // ...cell_seed across replicates...
  EXPECT_EQ(jobs[0].cell_seed, jobs[1].cell_seed);
  EXPECT_NE(jobs[0].cell_seed, jobs[2].cell_seed);
  // ...and the job seed is unique.
  std::vector<std::uint64_t> seeds;
  for (const auto& [index, job] : jobs) {
    seeds.push_back(job.seed);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  // The derivation itself is pinned: stored rows and CRN pairings of
  // earlier builds stay valid only while these values hold.
  EXPECT_EQ(jobs[0].seed, 0x971d489f4a63746cULL);
  EXPECT_EQ(jobs[3].seed, 0x73b0434ddb6b8f0eULL);
  EXPECT_EQ(jobs[5].seed, 0x878e9c9b37539a00ULL);
  EXPECT_EQ(jobs[0].cell_seed, 0xdce42328da512b68ULL);
  EXPECT_EQ(jobs[2].cell_seed, 0x9e777da3fc65af54ULL);
  EXPECT_EQ(jobs[4].cell_seed, 0x74e6130ea5c82a15ULL);
  EXPECT_EQ(jobs[0].replicate_seed, 0x6cac2479da9ba080ULL);
  EXPECT_EQ(jobs[1].replicate_seed, 0xa90f49ed9df59c19ULL);
}

// ----------------------------------------------------------- the runner

exp::ExperimentSpec tiny_table2_spec() {
  // A miniature Table-2 sweep: every scheme on kibam over 3 sets, with a
  // short horizon so the whole thing runs in well under a second.
  exp::ExperimentSpec spec;
  spec.title = "tiny-table2";
  spec.grid.add("scheme", exp::scheme_labels());
  spec.metrics = {"lifetime_min", "delivered_mah", "energy_j"};
  spec.replicates = 3;
  spec.seed = 2006;
  spec.run = [](const exp::Job& job) {
    util::Rng rng(job.replicate_seed);
    tgff::WorkloadParams wp;
    wp.graph_count = 2;
    wp.target_utilization = 0.7 / 0.6;
    wp.period_lo_s = 0.1;
    wp.period_hi_s = 0.5;
    const auto set = tgff::make_workload(wp, rng);

    sim::SimConfig config;
    config.horizon_s = 30.0;
    config.drain = false;
    config.record_profile = false;
    config.ac_model = sim::AcModel::kPerNodeMean;
    config.seed = util::Rng::hash_combine(job.replicate_seed, 1000u);

    const auto battery = scenario::make_battery("kibam");
    const auto proc = dvs::Processor::paper_default();
    const auto r = sim::simulate_scheme(
        set, proc, exp::scheme_kind_at(job.at(0)), config, battery.get());
    return std::vector<double>{r.battery_lifetime_s / 60.0,
                               r.battery_delivered_mah, r.energy_j};
  };
  return spec;
}

TEST(Runner, BitIdenticalForAnyThreadCount) {
  const auto spec = tiny_table2_spec();
  const auto serial = exp::run_experiment(spec, 1);
  const auto parallel = exp::run_experiment(spec, 4);

  ASSERT_EQ(serial.cell_count(), parallel.cell_count());
  for (std::size_t c = 0; c < serial.cell_count(); ++c) {
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      // Bitwise, not approximate: the engine promises byte-identical
      // aggregation for any --jobs value.
      const double a[] = {serial.at(c, m).mean(), serial.at(c, m).stddev(),
                          serial.at(c, m).min(), serial.at(c, m).max(),
                          serial.at(c, m).sum()};
      const double b[] = {parallel.at(c, m).mean(),
                          parallel.at(c, m).stddev(), parallel.at(c, m).min(),
                          parallel.at(c, m).max(), parallel.at(c, m).sum()};
      EXPECT_EQ(0, std::memcmp(a, b, sizeof(a)))
          << "cell " << c << " metric " << m;
      EXPECT_EQ(serial.at(c, m).count(), parallel.at(c, m).count());
    }
  }
  EXPECT_EQ(exp::to_csv(serial), exp::to_csv(parallel));
  EXPECT_EQ(exp::to_json(serial), exp::to_json(parallel));
}

TEST(Runner, AggregatesInReplicateOrder) {
  exp::ExperimentSpec spec;
  spec.title = "identity";
  spec.grid.add("cell", {"c0", "c1"});
  spec.metrics = {"replicate"};
  spec.replicates = 8;
  spec.run = [](const exp::Job& job) {
    return std::vector<double>{static_cast<double>(job.replicate)};
  };
  const auto result = exp::run_experiment(spec, 4);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(result.at(c, 0).count(), 8u);
    EXPECT_DOUBLE_EQ(result.at(c, 0).mean(), 3.5);
    EXPECT_DOUBLE_EQ(result.at(c, 0).min(), 0.0);
    EXPECT_DOUBLE_EQ(result.at(c, 0).max(), 7.0);
  }
}

TEST(Runner, PropagatesJobErrors) {
  exp::ExperimentSpec spec;
  spec.title = "exploding";
  spec.grid.add("cell", {"c0", "c1"});
  spec.metrics = {"x"};
  spec.replicates = 2;
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    if (job.index == 2) {
      throw std::runtime_error("boom");
    }
    return {1.0};
  };
  EXPECT_THROW(exp::run_experiment(spec, 2), std::runtime_error);
}

TEST(Runner, RejectsWrongMetricArity) {
  exp::ExperimentSpec spec;
  spec.title = "arity";
  spec.grid.add("cell", {"c0"});
  spec.metrics = {"x", "y"};
  spec.run = [](const exp::Job&) { return std::vector<double>{1.0}; };
  EXPECT_THROW(exp::run_experiment(spec, 1), std::runtime_error);
}

TEST(Runner, RejectsMalformedSpecs) {
  exp::ExperimentSpec spec;
  spec.title = "malformed";
  spec.grid.add("cell", {"c0"});
  spec.metrics = {"x"};
  EXPECT_THROW(exp::run_experiment(spec, 1), std::invalid_argument);  // no run
  spec.run = [](const exp::Job&) { return std::vector<double>{1.0}; };
  spec.replicates = 0;
  EXPECT_THROW(exp::run_experiment(spec, 1), std::invalid_argument);
  spec.replicates = 1;
  spec.metrics.clear();
  EXPECT_THROW(exp::run_experiment(spec, 1), std::invalid_argument);
}

// ------------------------------------------------------------ the sinks

TEST(Sink, CsvHasHeaderAndOneRowPerCell) {
  exp::ExperimentSpec spec;
  spec.title = "csv";
  spec.grid.add("a", {"x", "y"}).add("b", {"p", "q", "r"});
  spec.metrics = {"value"};
  spec.replicates = 2;
  spec.run = [](const exp::Job& job) {
    return std::vector<double>{static_cast<double>(job.cell)};
  };
  const auto result = exp::run_experiment(spec, 2);
  const auto csv = exp::to_csv(result);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);  // header + 6 cells
  EXPECT_EQ(csv.rfind("a,b,value_count,value_mean,value_stddev,value_min,"
                      "value_max,value_sum\n",
                      0),
            0u);
  EXPECT_NE(csv.find("\ny,r,2,5,0,5,5,10\n"), std::string::npos);
}

TEST(Sink, CsvQuotesAwkwardLabelsAndMetricNames) {
  exp::ExperimentSpec spec;
  spec.title = "csv-escape";
  spec.grid.add("axis", {"plain", "with,comma"});
  spec.metrics = {"lifetime,min"};
  spec.run = [](const exp::Job&) { return std::vector<double>{1.0}; };
  const auto csv = exp::to_csv(exp::run_experiment(spec, 1));
  // The _stat suffix must land inside the quotes, not after them.
  EXPECT_NE(csv.find("\"lifetime,min_mean\""), std::string::npos);
  EXPECT_NE(csv.find("\n\"with,comma\","), std::string::npos);
}

TEST(Sink, CsvDoublesEmbeddedQuotesAndQuotesNewlines) {
  exp::ExperimentSpec spec;
  spec.title = "csv-quotes";
  spec.grid.add("axis", {"say \"hi\"", "two\nlines"});
  spec.metrics = {"m"};
  spec.run = [](const exp::Job&) { return std::vector<double>{1.0}; };
  const auto csv = exp::to_csv(exp::run_experiment(spec, 1));
  // RFC 4180: the field is quoted and the inner quotes are doubled.
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\","), std::string::npos);
  EXPECT_NE(csv.find("\"two\nlines\","), std::string::npos);
}

TEST(Sink, DoublesRoundTripThroughSeventeenSigDigits) {
  // %.17g is the shortest fixed precision that round-trips every finite
  // double; both sinks and the resume cache rely on it. Parse the CSV
  // cell back and compare bitwise.
  const double awkward[] = {1.0 / 3.0, 0.1, 5e-324, 1.7976931348623157e308,
                            123456789.12345679};
  for (const double value : awkward) {
    exp::ExperimentSpec spec;
    spec.title = "roundtrip";
    spec.grid.add("axis", {"v"});
    spec.metrics = {"m"};
    spec.run = [value](const exp::Job&) { return std::vector<double>{value}; };
    const auto csv = exp::to_csv(exp::run_experiment(spec, 1));
    // Row: v,count,mean,stddev,min,max,sum — mean is the second field.
    const auto row = csv.substr(csv.find("\nv,") + 3);
    const auto mean_at = row.find(',') + 1;
    const double parsed =
        std::strtod(row.c_str() + mean_at, nullptr);
    EXPECT_EQ(0, std::memcmp(&parsed, &value, sizeof(double)))
        << "value " << value << " parsed as " << parsed;
  }
}

TEST(Sink, JsonEscapesControlCharacters) {
  exp::ExperimentSpec spec;
  spec.title = "tab\there";
  spec.grid.add("axis", {"v0"});
  spec.metrics = {"m"};
  spec.run = [](const exp::Job&) { return std::vector<double>{1.0}; };
  const auto json = exp::to_json(exp::run_experiment(spec, 1));
  EXPECT_NE(json.find("tab\\u0009here"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(Sink, JsonMentionsAxesMetricsAndCells) {
  exp::ExperimentSpec spec;
  spec.title = "json \"quoted\"";
  spec.grid.add("axis", {"v0"});
  spec.metrics = {"m"};
  spec.run = [](const exp::Job&) { return std::vector<double>{1.5}; };
  const auto json = exp::to_json(exp::run_experiment(spec, 1));
  EXPECT_NE(json.find("\"title\": \"json \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"axis\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 1.5"), std::string::npos);
}

// -------------------------------------------------------- the factories

TEST(Factories, EveryBatteryLabelBuilds) {
  const auto axis = exp::battery_axis();
  EXPECT_EQ(axis.name, "battery");
  for (const auto& label : axis.labels) {
    const auto battery = scenario::make_battery(label);
    ASSERT_NE(battery, nullptr);
    EXPECT_EQ(battery->name(), label);
  }
  EXPECT_THROW(scenario::make_battery("unobtainium"), std::invalid_argument);
}

TEST(Factories, SchemeAxisMatchesTable2) {
  const auto labels = exp::scheme_labels();
  ASSERT_EQ(labels.size(), core::table2_schemes().size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], core::to_string(exp::scheme_kind_at(i)));
  }
}

// ------------------------------------------------------ bench CLI flags

TEST(Cli, BenchDefaultsAddJobsAndCsv) {
  const char* argv[] = {"bench"};
  util::Cli cli(1, argv, util::Cli::with_bench_defaults({{"sets", "5"}}));
  EXPECT_EQ(cli.get("sets"), "5");
  EXPECT_EQ(cli.get("jobs"), "auto");
  EXPECT_EQ(cli.get("csv"), "");
  EXPECT_GE(cli.jobs(), 1);
}

TEST(Cli, BenchDefaultsDoNotOverrideCallerValues) {
  const char* argv[] = {"bench"};
  util::Cli cli(1, argv, util::Cli::with_bench_defaults({{"jobs", "3"}}));
  EXPECT_EQ(cli.jobs(), 3);
}

TEST(Cli, JobsParsesExplicitCounts) {
  const char* argv[] = {"bench", "--jobs", "7"};
  util::Cli cli(3, argv, util::Cli::with_bench_defaults({}));
  EXPECT_EQ(cli.jobs(), 7);
  const char* argv0[] = {"bench", "--jobs", "0"};
  util::Cli auto_cli(3, argv0, util::Cli::with_bench_defaults({}));
  EXPECT_GE(auto_cli.jobs(), 1);
}

TEST(Cli, UnknownOptionErrorNamesKnownOptions) {
  const char* argv[] = {"bench", "--stes", "5"};
  try {
    util::Cli cli(3, argv, util::Cli::with_bench_defaults({{"sets", "5"}}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown option --stes"), std::string::npos);
    EXPECT_NE(message.find("--sets"), std::string::npos);
    EXPECT_NE(message.find("--jobs"), std::string::npos);
  }
}

// ------------------------------------------------------------ run_main

// exp::run_main's exit code and captured stdout / stderr.
struct MainRun {
  int code;
  std::string out;
  std::string err;
};

int call_run_main(std::vector<const char*> args,
                  const std::function<int(util::Cli&)>& body) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (const char* arg : args) {
    argv.push_back(const_cast<char*>(arg));
  }
  return exp::run_main(
      static_cast<int>(argv.size()), argv.data(),
      scenario::with_scenario_defaults({{"sets", "5"}}, "paper-table2"), body);
}

MainRun run_main_with(std::vector<const char*> args,
                      const std::function<int(util::Cli&)>& body) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = call_run_main(std::move(args), body);
  const std::string out = testing::internal::GetCapturedStdout();
  return {code, out, testing::internal::GetCapturedStderr()};
}

TEST(RunMain, ReturnsTheBodysCode) {
  const auto r = run_main_with({"--sets", "3"}, [](util::Cli& cli) {
    return static_cast<int>(cli.get_int("sets"));
  });
  EXPECT_EQ(r.code, 3);
}

TEST(RunMain, HelpPrintsTheOptionsAndSkipsTheBody) {
  bool ran = false;
  const auto r = run_main_with({"--help"}, [&](util::Cli&) {
    ran = true;
    return 0;
  });
  EXPECT_EQ(r.code, 0);
  EXPECT_FALSE(ran);
  EXPECT_NE(r.out.find("--sets"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("--scenario.utilization"), std::string::npos);
}

TEST(RunMain, ListScenariosIsAnsweredOnce) {
  bool ran = false;
  const auto r = run_main_with({"--list-scenarios"}, [&](util::Cli&) {
    ran = true;
    return 0;
  });
  EXPECT_EQ(r.code, 0);
  EXPECT_FALSE(ran);
  EXPECT_NE(r.out.find("paper-table2"), std::string::npos);
}

TEST(RunMain, RejectedInputExitsTwoWithTheMessageAndTheOptions) {
  const auto parse = run_main_with({"--sets", "abc"}, [](util::Cli& cli) {
    return static_cast<int>(cli.get_int("sets"));
  });
  EXPECT_EQ(parse.code, 2);
  EXPECT_NE(parse.err.find("error: option --sets expects an integer"),
            std::string::npos)
      << parse.err;
  EXPECT_NE(parse.err.find("--scenario.utilization"), std::string::npos);

  // The unknown-option message names the known options itself; they
  // are not listed a second time.
  const auto unknown =
      run_main_with({"--bogus"}, [](util::Cli&) { return 0; });
  EXPECT_EQ(unknown.code, 2);
  const auto first = unknown.err.find("--scenario.utilization");
  ASSERT_NE(first, std::string::npos) << unknown.err;
  EXPECT_EQ(unknown.err.find("--scenario.utilization", first + 1),
            std::string::npos)
      << unknown.err;

  const auto body = run_main_with({}, [](util::Cli&) -> int {
    throw std::invalid_argument("axis clash");
  });
  EXPECT_EQ(body.code, 2);
  EXPECT_NE(body.err.find("error: axis clash"), std::string::npos);
}

TEST(RunMain, OtherExceptionsPropagate) {
  EXPECT_THROW(call_run_main({}, [](util::Cli&) -> int {
                 throw std::runtime_error("bug");
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace bas
