#pragma once
// Stage 1 of a campaign: planning.
//
// Every job of a spec is a pure function of its flat index (job.hpp), so
// there is no manifest: make_job derives a job's coordinates and seeds
// when a worker claims its index. The canonical fingerprint of the spec
// covers everything that determines job outputs (title, config, axes,
// metric names, replicates, root seed) and the results revision of the
// code that computes them, so it keys the campaign store
// (store/jsonl.hpp): change the grid, the seed or the revision and
// previously stored rows are ignored rather than served as wrong
// results.

#include <cstddef>
#include <cstdint>
#include <string>

#include "exp/experiment.hpp"
#include "exp/job.hpp"

namespace bas::exp {

/// The revision of every simulated number a campaign stores. A change
/// that moves any job output (a CSV byte, a golden) bumps it, so that
/// stores written by the older code are never served as fresh results;
/// tests/golden/revisions.txt pairs each revision with the hash of the
/// goldens it produced, and golden_bit_identity fails when the goldens
/// moved without a bump.
inline constexpr std::uint64_t kResultsRevision = 1;

/// Canonical 64-bit fingerprint of a spec: FNV-1a over a
/// length-prefixed serialization of kResultsRevision, title, config,
/// seed, replicates, axes (names and labels) and metric names.
/// Identical specs fingerprint identically on every platform; any
/// change to the sweep's identity or to the revision changes the
/// fingerprint.
std::uint64_t spec_fingerprint(const ExperimentSpec& spec);

/// Fixed-width lowercase hex rendering of a fingerprint.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// The job at flat index `index` in [0, spec.job_count()), with its
/// coordinates and seeds. Requires spec.replicates >= 1 (the runner
/// checks it before any job is made).
Job make_job(const ExperimentSpec& spec, std::size_t index);

/// "job 7 [scheme=BAS-2, battery=kibam] replicate 1" — for error
/// messages and trace spans of multi-thousand-job campaigns.
std::string describe(const ExperimentSpec& spec, const Job& job);

}  // namespace bas::exp
