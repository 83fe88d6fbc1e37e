#pragma once
// Stage 1 of a campaign: planning.
//
// A Plan materializes an ExperimentSpec's job manifest — every
// (cell, replicate) Job with its deterministically derived seeds — and a
// canonical fingerprint of the spec. The fingerprint covers everything
// that determines job outputs (title, axes, metric names, replicates,
// root seed), so it keys the campaign store (store/store.hpp): change
// the grid or the seed and previously stored rows are ignored rather
// than served as wrong results.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/job.hpp"

namespace bas::exp {

/// Canonical 64-bit fingerprint of a spec: FNV-1a over a
/// length-prefixed serialization of title, config, seed, replicates,
/// axes (names and labels) and metric names. Identical specs
/// fingerprint identically on every platform; any change to the
/// sweep's identity changes the fingerprint.
std::uint64_t spec_fingerprint(const ExperimentSpec& spec);

/// Fixed-width lowercase hex rendering of a fingerprint.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// The materialized manifest of one spec: jobs in index order plus the
/// spec fingerprint. Construction validates the spec (run function
/// present, metrics non-empty, replicates >= 1) and throws
/// std::invalid_argument on violations.
class Plan {
 public:
  explicit Plan(const ExperimentSpec& spec);

  const std::vector<Job>& jobs() const noexcept { return jobs_; }
  const Job& job(std::size_t index) const { return jobs_.at(index); }
  std::size_t job_count() const noexcept { return jobs_.size(); }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// "job 7 [scheme=BAS-2, battery=kibam] replicate 1" — for error
  /// messages and progress notes of multi-thousand-job campaigns.
  std::string describe(const Job& job) const;

 private:
  Grid grid_;
  std::vector<Job> jobs_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace bas::exp
