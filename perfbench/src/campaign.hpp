#pragma once
// One closed-loop batch campaign: a workload's fixed job manifest run by
// exp::Runner workers, each taking the next job when it finishes, timed
// from set-up to the folded result, with every job's result checked and
// hashed.

#include <cstdint>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

/// A job slower than this counts as timed out (and failed).
inline constexpr double kJobTimeoutS = 60.0;

struct CampaignOptions {
  std::uint64_t seed = 1;
  int workers = 1;
  /// Install the layer hooks and record spans into `trace` (when set).
  bool traced = false;
  /// Campaign store directory (store workloads only); wiped before and
  /// after the campaign.
  std::string store_dir;
  /// Nudge job 0's first metric by one ulp before hashing — a stand-in
  /// for a wrong result, which the digest check must catch.
  bool perturb = false;
  /// Traced runs append job and layer spans here when non-null.
  bas::obs::TraceLog* trace = nullptr;
};

struct CampaignResult {
  /// Host wall time from set-up start to the folded (and, for store
  /// workloads, merged-back) result.
  double wall_s = 0.0;
  /// Process CPU time (user + sys) over the same interval.
  double cpu_s = 0.0;
  /// Set-up start to the first job starting: workload/scenario lookup,
  /// job manifest, store open, worker start.
  double setup_s = 0.0;
  /// Host latency of every job, in job order.
  std::vector<double> job_s;
  double job_sum_s = 0.0;

  std::size_t attempted = 0;
  /// Jobs that threw, timed out or failed a result check.
  std::size_t failed = 0;
  std::string first_failure;
  /// FNV-1a over every job's metric doubles in job order.
  std::uint64_t digest = 0;

  /// Mean lifetime (min) per scheme cell, when the workload has a paper
  /// reference.
  std::vector<double> lifetime_min;

  /// Store workloads: the merge-only read-back folded exactly what the
  /// live run folded.
  bool store_roundtrip_ok = true;
  std::uint64_t store_records = 0;
  std::uint64_t store_bytes = 0;
  double merge_s = 0.0;

  /// Traced campaigns: per-layer busy time and work counts over all jobs.
  LayerTotals totals;
};

CampaignResult run_campaign(const std::string& workload, Size size,
                            const CampaignOptions& options);

}  // namespace perfbench
