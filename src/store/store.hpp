#pragma once
// The streaming campaign store: where per-job metric rows live between
// (and across) campaign runs.
//
// The store persists records keyed on (spec fingerprint, job index)
// as append-only JSONL (store/jsonl.hpp), one record per line. This
// header holds the record type and the helpers the JSONL store and
// tests share.
//
// Records carry the engine's %.17g double rendering (exp/sink.hpp), so
// a result folded from the store is byte-identical to a fresh run —
// the merge/resume contract the campaign layer is verified against.
// Records are either metric rows (a successful job's values) or error
// rows (a job that failed permanently under --keep-going); load()
// serves only metric rows, so resumed runs re-execute failed jobs
// rather than trusting a stale failure.

#include <cstdint>
#include <string>
#include <vector>

namespace bas::store {

/// One persisted row: either a successful job's metrics (error empty)
/// or a permanent failure (metrics empty, error holds the message).
struct StoreRecord {
  std::size_t job_index = 0;
  std::vector<double> metrics;
  std::string error;

  bool is_error() const noexcept { return !error.empty(); }
};

// --------------------------------------------------------------------
// Shared helpers for the store and tests.

/// Renders metrics as "[v1,v2,...]" with the engine's %.17g doubles.
std::string format_metrics(const std::vector<double>& metrics);

/// Parses a format_metrics() string back; returns false on anything
/// malformed (outputs untouched).
bool parse_metrics(const char* text, std::vector<double>* metrics);

}  // namespace bas::store
