// Tests for the campaign layer: plan/fingerprint, store-backed resume,
// per-job store durability, merge collection, keep-going error rows,
// determinism across worker counts and the coordinate-bearing runner
// error reports. The JSONL store itself is covered by test_store.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "store/jsonl.hpp"
#include "store/store.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

/// Fresh temp directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("bas-campaign-" + name + "-" +
               std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// A cheap spec whose metrics are awkward doubles (hash-derived, full
/// mantissas) — exactly what must survive the store's text round trip.
exp::ExperimentSpec awkward_spec() {
  exp::ExperimentSpec spec;
  spec.title = "awkward";
  spec.grid.add("a", {"a0", "a1", "a2"}).add("b", {"b0", "b1"});
  spec.metrics = {"x", "y"};
  spec.replicates = 3;
  spec.seed = 77;
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    const double u =
        static_cast<double>(util::Rng::mix(job.seed)) / 1.8446744e19;
    return {std::sin(u) / 3.0, std::exp(-u) * 1e-7};
  };
  return spec;
}

void expect_bitwise_equal(const exp::ExperimentResult& a,
                          const exp::ExperimentResult& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  ASSERT_EQ(a.metric_names().size(), b.metric_names().size());
  EXPECT_EQ(exp::to_csv(a), exp::to_csv(b));
}

/// The one file of `spec`'s store in `dir`.
std::string store_file(const exp::ExperimentSpec& spec,
                       const std::string& dir) {
  return dir + "/" + exp::fingerprint_hex(exp::spec_fingerprint(spec)) +
         ".jsonl";
}

/// Runs `spec` into the store `dir` with one worker, so rows land in
/// job order, then keeps only the first `keep` lines of the store file:
/// what a campaign killed after `keep` jobs leaves behind.
void write_truncated_store(const exp::ExperimentSpec& spec,
                           const std::string& dir, std::size_t keep) {
  exp::RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir;
  exp::run_experiment(spec, options);
  const std::string path = store_file(spec, dir);
  std::string kept;
  {
    std::ifstream in(path);
    std::string line;
    for (std::size_t i = 0; i < keep && std::getline(in, line); ++i) {
      kept += line + "\n";
    }
  }
  std::ofstream(path, std::ios::trunc) << kept;
}

/// The spec with every job at index >= `from` failing: under keep_going
/// it folds exactly the jobs a store truncated at `from` holds.
exp::ExperimentSpec failing_from(std::size_t from) {
  auto spec = awkward_spec();
  const auto inner = spec.run;
  spec.run = [from, inner](const exp::Job& job) -> std::vector<double> {
    if (job.index >= from) {
      throw std::runtime_error("not stored");
    }
    return inner(job);
  };
  return spec;
}

// ----------------------------------------------------------------- plan

TEST(Plan, FingerprintIsStableAndSensitive) {
  const auto spec = awkward_spec();
  EXPECT_EQ(exp::spec_fingerprint(spec), exp::spec_fingerprint(spec));

  auto changed = awkward_spec();
  changed.seed = 78;
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));

  changed = awkward_spec();
  changed.title = "other";
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));

  changed = awkward_spec();
  changed.replicates = 4;
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));

  changed = awkward_spec();
  changed.metrics[1] = "z";
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));

  changed = awkward_spec();
  changed.grid = exp::Grid{};
  changed.grid.add("a", {"a0", "a1", "a2"}).add("b", {"b0", "B1"});
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));
}

TEST(Plan, FieldBoundariesChangeTheFingerprint) {
  // Length-prefixed serialization: moving a character between adjacent
  // fields must not collide.
  auto a = awkward_spec();
  a.grid = exp::Grid{};
  a.grid.add("ab", {"c"});
  auto b = awkward_spec();
  b.grid = exp::Grid{};
  b.grid.add("a", {"bc"});
  EXPECT_NE(exp::spec_fingerprint(a), exp::spec_fingerprint(b));
}

TEST(Plan, MakeJobDerivesEveryJobFromItsIndex) {
  const auto spec = awkward_spec();
  for (std::size_t i = 0; i < spec.job_count(); ++i) {
    const auto job = exp::make_job(spec, i);
    EXPECT_EQ(job.index, i);
    EXPECT_EQ(job.cell, i / 3);
    EXPECT_EQ(job.replicate, static_cast<int>(i % 3));
    EXPECT_EQ(job.coord, spec.grid.coord(job.cell));
  }
}

TEST(Plan, DescribeNamesCoordinatesAndReplicate) {
  const auto spec = awkward_spec();
  EXPECT_EQ(exp::describe(spec, exp::make_job(spec, 10)),
            "job 10 [a=a1, b=b1] replicate 1");
}

// ------------------------------------------------ resumed + merged runs

TEST(Campaign, StoreResumeMatchesFreshRunAndSkipsStoredJobs) {
  TempDir dir("resume");
  auto spec = awkward_spec();
  const auto fresh = exp::run_experiment(spec, 4);

  // Interrupted stand-in: only the first half of the rows reached the
  // store.
  const std::size_t half = spec.job_count() / 2;
  write_truncated_store(spec, dir.path, half);

  std::atomic<std::size_t> executed{0};
  const auto inner = spec.run;
  spec.run = [&executed, inner](const exp::Job& job) {
    executed.fetch_add(1);
    return inner(job);
  };
  exp::RunnerOptions resume;
  resume.jobs = 4;
  resume.cache_dir = dir.path;
  const auto resumed = exp::run_experiment(spec, resume);
  expect_bitwise_equal(fresh, resumed);
  EXPECT_EQ(executed.load(), spec.job_count() - half);

  // A second resume finds everything stored and executes nothing.
  executed = 0;
  const auto again = exp::run_experiment(spec, resume);
  expect_bitwise_equal(fresh, again);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(Campaign, StaleFingerprintInvalidatesTheStore) {
  TempDir dir("stale");
  auto spec = awkward_spec();
  exp::RunnerOptions options;
  options.jobs = 2;
  options.cache_dir = dir.path;
  exp::run_experiment(spec, options);

  spec.seed = 1234;  // a different sweep identity
  const auto fresh = exp::run_experiment(spec, 4);
  std::atomic<std::size_t> executed{0};
  const auto inner = spec.run;
  spec.run = [&executed, inner](const exp::Job& job) {
    executed.fetch_add(1);
    return inner(job);
  };
  const auto rerun = exp::run_experiment(spec, options);
  EXPECT_EQ(executed.load(), spec.job_count());  // nothing served stale
  expect_bitwise_equal(fresh, rerun);
}

TEST(Campaign, MergeReportsMissingJobs) {
  TempDir dir("missing");
  const auto spec = awkward_spec();
  write_truncated_store(spec, dir.path, 9);

  exp::RunnerOptions merge;
  merge.merge_only = true;
  merge.cache_dir = dir.path;
  try {
    exp::run_experiment(spec, merge);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("merge found only 9 of 18"), std::string::npos)
        << message;
    EXPECT_NE(message.find("first missing: job 9"), std::string::npos)
        << message;
  }
}

TEST(Campaign, MergeWithKeepGoingFoldsThePartialResult) {
  TempDir dir("partial-merge");
  const auto spec = awkward_spec();
  write_truncated_store(spec, dir.path, 9);
  exp::RunnerOptions keep_going;
  keep_going.keep_going = true;
  const auto partial = exp::run_experiment(failing_from(9), keep_going);

  exp::RunnerOptions merge;
  merge.merge_only = true;
  merge.cache_dir = dir.path;
  merge.keep_going = true;
  const auto merged = exp::run_experiment(spec, merge);
  // Exactly the stored half is folded, bit-identically.
  expect_bitwise_equal(partial, merged);
}

TEST(Campaign, MergeIsNotFooledByOutOfRangeRecords) {
  TempDir dir("padding");
  const auto spec = awkward_spec();
  write_truncated_store(spec, dir.path, 9);

  // Pad the store with matching-fingerprint records whose job indices
  // are out of range, so the record count reaches job_count() while
  // the second half of the jobs is still missing.
  {
    store::JsonlStore padding(dir.path, exp::spec_fingerprint(spec));
    for (std::size_t i = 0; i < spec.job_count(); ++i) {
      padding.append({spec.job_count() + i, {1.0, 2.0}, ""});
    }
  }

  exp::RunnerOptions merge;
  merge.merge_only = true;
  merge.cache_dir = dir.path;
  EXPECT_THROW(exp::run_experiment(spec, merge), std::runtime_error);
}

TEST(Campaign, ResumeNoteCountsOnlyInRangeStoredJobs) {
  // A stray out-of-range row is loaded with the store but serves no
  // job: the note must count the 9 stored jobs, not the 10 rows.
  TempDir dir("note");
  const auto spec = awkward_spec();
  write_truncated_store(spec, dir.path, 9);
  store::JsonlStore(dir.path, exp::spec_fingerprint(spec))
      .append({spec.job_count(), {1.0, 2.0}, ""});

  exp::RunnerOptions resume;
  resume.cache_dir = dir.path;
  resume.progress = true;
  testing::internal::CaptureStderr();
  exp::run_experiment(spec, resume);
  std::string note = testing::internal::GetCapturedStderr();
  EXPECT_NE(note.find("9/18 jobs stored, executing 9"), std::string::npos)
      << note;

  // Merge mode counts the same way.
  exp::RunnerOptions merge = resume;
  merge.merge_only = true;
  testing::internal::CaptureStderr();
  exp::run_experiment(spec, merge);
  note = testing::internal::GetCapturedStderr();
  EXPECT_NE(note.find("18/18 jobs stored, executing 0"), std::string::npos)
      << note;
}

TEST(Campaign, MergeWithoutStoreIsRejected) {
  exp::RunnerOptions merge;
  merge.merge_only = true;
  EXPECT_THROW(exp::run_experiment(awkward_spec(), merge),
               std::invalid_argument);
}

// ----------------------------------------------- multi-worker execution

TEST(Campaign, UnevenCellCostsFoldBitIdenticalAcrossThreadCounts) {
  // Strongly skewed per-cell cost: the workers stuck on expensive jobs
  // claim fewer of the rest, so who computes which job depends on
  // timing. The fold must not care.
  auto spec = awkward_spec();
  const auto inner = spec.run;
  spec.run = [inner](const exp::Job& job) {
    if (job.cell == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return inner(job);
  };
  const auto serial = exp::run_experiment(spec, 1);
  for (const int jobs : {2, 4, 8}) {
    expect_bitwise_equal(serial, exp::run_experiment(spec, jobs));
  }
}

TEST(Campaign, EveryJobExecutesExactlyOnceWithManyWorkers) {
  auto spec = awkward_spec();
  std::vector<std::atomic<int>> executions(spec.job_count());
  const auto inner = spec.run;
  spec.run = [&executions, inner](const exp::Job& job) {
    executions[job.index].fetch_add(1);
    return inner(job);
  };
  exp::run_experiment(spec, 8);
  for (std::size_t i = 0; i < executions.size(); ++i) {
    EXPECT_EQ(executions[i].load(), 1) << "job " << i;
  }
}

// ------------------------------------------------------------ keep-going

TEST(Campaign, KeepGoingRecordsErrorRowsAndFinishesTheRun) {
  TempDir dir("keep-going");
  auto spec = awkward_spec();
  const auto inner = spec.run;
  spec.run = [inner](const exp::Job& job) -> std::vector<double> {
    if (job.index == 4) {
      throw std::runtime_error("cell on fire");
    }
    return inner(job);
  };
  exp::RunnerOptions options;
  options.jobs = 2;
  options.cache_dir = dir.path;
  options.keep_going = true;
  const auto partial = exp::run_experiment(spec, options);

  // Job 4 is replicate 1 of cell 1: that cell aggregates 2 samples.
  EXPECT_EQ(partial.at(1, 0).count(), 2u);
  EXPECT_EQ(partial.at(0, 0).count(), 3u);

  // The failure is an error row, visible to merge diagnostics...
  {
    store::JsonlStore probe(dir.path, exp::spec_fingerprint(spec));
    const auto errors = probe.load_errors();
    ASSERT_EQ(errors.size(), 1u);
    ASSERT_TRUE(errors.count(4));
    EXPECT_NE(errors.at(4).find("cell on fire"), std::string::npos);
    EXPECT_EQ(probe.load(2).size(), spec.job_count() - 1);
  }

  // ...and merge without keep_going names the failed job.
  exp::RunnerOptions merge;
  merge.merge_only = true;
  merge.cache_dir = dir.path;
  try {
    exp::run_experiment(spec, merge);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("recorded as failed"), std::string::npos)
        << message;
    EXPECT_NE(message.find("cell on fire"), std::string::npos) << message;
  }

  // A resume with the failure fixed re-executes exactly the failed job
  // (error rows are never served as results) and completes the store.
  std::atomic<std::size_t> executed{0};
  auto fixed = awkward_spec();
  const auto fixed_inner = fixed.run;
  fixed.run = [&executed, fixed_inner](const exp::Job& job) {
    executed.fetch_add(1);
    return fixed_inner(job);
  };
  exp::RunnerOptions resume;
  resume.cache_dir = dir.path;
  const auto resumed = exp::run_experiment(fixed, resume);
  EXPECT_EQ(executed.load(), 1u);
  expect_bitwise_equal(exp::run_experiment(awkward_spec(), 1), resumed);
}

// ------------------------------------------------------ store durability

/// Non-empty lines of the store file at `path`.
std::size_t stored_lines(const std::string& path) {
  std::size_t lines = 0;
  std::ifstream file(path);
  for (std::string line; std::getline(file, line);) {
    lines += line.empty() ? 0 : 1;
  }
  return lines;
}

TEST(Campaign, EachRowIsStoredBeforeTheNextJobStarts) {
  // With one worker, job i starts after jobs 0..i-1 finished; each of
  // their rows must already be on disk, so a kill loses at most the
  // job in flight.
  TempDir dir("durable");
  auto spec = awkward_spec();
  const std::string path = store_file(spec, dir.path);
  std::vector<std::size_t> seen(spec.job_count(), 0);
  const auto inner = spec.run;
  spec.run = [&seen, &path, inner](const exp::Job& job) {
    seen[job.index] = stored_lines(path);
    return inner(job);
  };
  exp::RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.path;
  exp::run_experiment(spec, options);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i) << "job " << i;
  }
  EXPECT_EQ(stored_lines(path), spec.job_count());
}

TEST(Campaign, UnwritableStoreFailsOnceAndNamesTheFile) {
  // A directory squatting on the store file makes every append fail.
  // That is the store's fault, not a job's: the campaign must stop at
  // the first write, name the file, and run no job twice.
  TempDir dir("unwritable");
  auto spec = awkward_spec();
  const std::string path = store_file(spec, dir.path);
  std::filesystem::create_directories(path);
  std::vector<std::atomic<int>> executions(spec.job_count());
  const auto inner = spec.run;
  spec.run = [&executions, inner](const exp::Job& job) {
    executions[job.index].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner(job);
  };
  exp::RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.path;
  try {
    exp::run_experiment(spec, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("store '" + path + "'"), std::string::npos)
        << message;
  }
  for (std::size_t i = 0; i < executions.size(); ++i) {
    EXPECT_LE(executions[i].load(), 1) << "job " << i;
  }

  // Under keep_going the error row of a failed job hits the same store
  // failure and aborts the same way.
  spec.run = [](const exp::Job&) -> std::vector<double> {
    throw std::runtime_error("cell on fire");
  };
  options.keep_going = true;
  try {
    exp::run_experiment(spec, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("store '" + path + "'"), std::string::npos)
        << message;
  }
}

// ----------------------------------------------------- error reporting

TEST(Campaign, ErrorsCarryGridCoordinatesAndReplicate) {
  auto spec = awkward_spec();
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    if (job.index == 10) {
      throw std::runtime_error("boom");
    }
    return {0.0, 0.0};
  };
  try {
    exp::run_experiment(spec, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("job 10 [a=a1, b=b1] replicate 1"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("boom"), std::string::npos);
  }
}

TEST(Campaign, ArityErrorsCarryCoordinatesToo) {
  auto spec = awkward_spec();
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    if (job.index == 4) {
      return {1.0};  // expected 2
    }
    return {0.0, 0.0};
  };
  try {
    exp::run_experiment(spec, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("job 4"), std::string::npos) << message;
    EXPECT_NE(message.find("expected 2"), std::string::npos);
  }
}

// ------------------------------------------------------ CLI threading

TEST(Campaign, OptionsFromCliParseTheCampaignFlags) {
  const char* argv[] = {"bench",      "--jobs",  "3",
                        "--cache",    "/tmp/c",  "--progress",
                        "--keep-going"};
  util::Cli cli(7, argv, util::Cli::with_bench_defaults({}));
  const auto options = exp::options_from_cli(cli);
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.cache_dir, "/tmp/c");
  EXPECT_FALSE(options.merge_only);
  EXPECT_TRUE(options.progress);
  EXPECT_TRUE(options.keep_going);
}

TEST(Campaign, OptionsFromCliDefaultsAreInert) {
  const char* argv[] = {"bench"};
  util::Cli cli(1, argv, util::Cli::with_bench_defaults({}));
  const auto options = exp::options_from_cli(cli);
  EXPECT_TRUE(options.cache_dir.empty());
  EXPECT_FALSE(options.merge_only);
  EXPECT_FALSE(options.progress);
  EXPECT_FALSE(options.keep_going);
}

TEST(Campaign, StoreOptionIsUnknown) {
  // The campaign store has one implementation; --store no longer
  // selects anything and fails at parse time like any unknown option.
  const char* argv[] = {"bench", "--store", "jsonl"};
  try {
    util::Cli cli(3, argv, util::Cli::with_bench_defaults({}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option --store"),
              std::string::npos)
        << e.what();
  }
}

TEST(Campaign, RemovedJobFlagsAreUnknown) {
  // Jobs are deterministic and run exactly once: there is no per-job
  // deadline or retry budget left to set, so both flags fail at parse
  // time like any unknown option.
  for (const char* flag : {"--job-timeout", "--job-attempts"}) {
    const char* argv[] = {"bench", flag, "2"};
    try {
      util::Cli cli(3, argv, util::Cli::with_bench_defaults({}));
      FAIL() << "expected std::invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown option ") +
                                           flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Campaign, RemovedCampaignFlagsAreUnknown) {
  // A campaign runs in one process: there is no job partition to select
  // and no store compaction, and the progress heartbeat has one fixed
  // interval, so these flags fail at parse time like any unknown option.
  const std::vector<std::vector<const char*>> argvs = {
      {"bench", "--shard", "0/2"},
      {"bench", "--cache-compact"},
      {"bench", "--progress-interval", "1"}};
  for (const auto& argv : argvs) {
    try {
      util::Cli cli(static_cast<int>(argv.size()), argv.data(),
                    util::Cli::with_bench_defaults({}));
      FAIL() << "expected std::invalid_argument for " << argv[1];
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown option ") +
                                           argv[1]),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Campaign, MergeWithoutStoreFromCliIsRejectedByTheRunner) {
  const char* argv[] = {"bench", "--merge"};
  util::Cli cli(2, argv, util::Cli::with_bench_defaults({}));
  EXPECT_THROW(exp::run_experiment(awkward_spec(), exp::options_from_cli(cli)),
               std::invalid_argument);
}

TEST(Campaign, ConfigEntersTheFingerprint) {
  auto spec = awkward_spec();
  spec.config = "--battery kibam";
  auto changed = awkward_spec();
  changed.config = "--battery peukert";
  EXPECT_NE(exp::spec_fingerprint(spec), exp::spec_fingerprint(changed));
}

TEST(Campaign, ConfigSummaryExcludesEngineFlags) {
  const char* argv_a[] = {"bench",   "--battery", "kibam",
                          "--jobs",  "7",         "--cache",
                          "dir",     "--merge",   "--progress",
                          "--keep-going"};
  util::Cli a(10, argv_a,
              util::Cli::with_bench_defaults({{"battery", "kibam"}}));
  const char* argv_b[] = {"bench", "--battery", "kibam"};
  util::Cli b(3, argv_b,
              util::Cli::with_bench_defaults({{"battery", "kibam"}}));
  // Campaign/engine flags must not perturb the sweep identity — a
  // store full of results stays valid when the failure policy or the
  // thread count changes...
  EXPECT_EQ(a.config_summary(), b.config_summary());
  // ...but driver parameters must.
  const char* argv_c[] = {"bench", "--battery", "peukert"};
  util::Cli c(3, argv_c,
              util::Cli::with_bench_defaults({{"battery", "kibam"}}));
  EXPECT_NE(b.config_summary(), c.config_summary());
  EXPECT_NE(b.config_summary().find("--battery kibam"), std::string::npos);
}

}  // namespace
}  // namespace bas
