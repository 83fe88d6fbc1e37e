#pragma once
// The streaming campaign store: where per-job metric rows live between
// (and across) campaign runs.
//
// The store persists records keyed on (spec fingerprint, job index)
// as append-only JSONL (store/jsonl.hpp): one record per line,
// per-writer files so concurrent shard processes can share a
// directory. This header holds the record type and the helpers the
// JSONL store, compaction and tests share.
//
// Records carry the engine's %.17g double rendering (exp/sink.hpp), so
// a result folded from the store is byte-identical to a fresh run —
// the shard/merge/resume contract the campaign layer is verified
// against. Records are either metric rows (a successful job's values)
// or error rows (a job that failed permanently under --keep-going);
// load() serves only metric rows, so resumed runs re-execute failed
// jobs rather than trusting a stale failure.
//
// Writer liveness: every store construction registers a `*.live` marker
// (holding its pid) in the directory and removes it on destruction.
// Compaction (compact_jsonl) refuses to run while another live writer's
// marker is present — compaction rewrites/removes other writers' data —
// and silently clears markers whose process died (a kill -9 must not
// brick the directory).

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

/// What compact_jsonl() did, for progress notes and tests.
struct CompactionStats {
  std::size_t files_scanned = 0;
  std::size_t files_removed = 0;
  std::size_t records_seen = 0;
  std::size_t records_kept = 0;
};

// --------------------------------------------------------------------
// Shared helpers for the store and tests.

/// Renders metrics as "[v1,v2,...]" with the engine's %.17g doubles.
std::string format_metrics(const std::vector<double>& metrics);

/// Parses a format_metrics() string back; returns false on anything
/// malformed (outputs untouched).
bool parse_metrics(const char* text, std::vector<double>* metrics);

/// Registers a `<dir>/<stem>.pid<PID>.live` marker on construction and
/// removes it on destruction. Exposed so tests can fabricate live/dead
/// writers.
class WriterMarker {
 public:
  /// Throws std::runtime_error when the marker cannot be created.
  WriterMarker(const std::string& dir, const std::string& stem);
  ~WriterMarker();

  WriterMarker(const WriterMarker&) = delete;
  WriterMarker& operator=(const WriterMarker&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Scans `dir` for `*.live` markers. Markers of dead processes are
/// removed; a marker of a live process other than the caller throws
/// std::runtime_error naming the marker and pid. Used by
/// compact_jsonl(); a missing directory is a no-op.
void require_no_live_writers(const std::string& dir);

}  // namespace bas::store
