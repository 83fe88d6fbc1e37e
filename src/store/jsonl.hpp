#pragma once
// The JSONL campaign store, refactored from the original src/exp/cache
// implementation with the on-disk format preserved byte for byte.
// Every record is one line:
//
//   {"fp":"<16-hex fingerprint>","job":<index>,"metrics":[<%.17g>...]}
//   {"fp":"<16-hex fingerprint>","job":<index>,"error":"<escaped>"}
//
// A store directory holds one file per spec fingerprint,
// `<fingerprint>.jsonl`; the fingerprint covers exp::kResultsRevision,
// so rows computed by older code live in a file no current spec reads.
// Every append() is one write + one flush, and the runner appends a
// job's row before its worker claims the next job: a killed campaign
// loses at most the jobs still executing, and load() simply skips a
// torn final line. load() reads only this writer's file; every other
// file of the directory is never read and never removed.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace bas::store {

/// One writer into a store directory for one spec fingerprint, reading
/// and appending one file. append() is thread-safe (one mutex); load()
/// and load_errors() read the file without it, so the runner calls
/// them before any append.
class JsonlStore {
 public:
  /// Opens the store in `dir` (created if missing) for one spec
  /// fingerprint. Throws std::runtime_error when the directory cannot
  /// be created.
  JsonlStore(const std::string& dir, std::uint64_t fingerprint);

  /// Metrics of every stored success record whose fingerprint matches
  /// and whose arity is `metric_count`. Malformed, stale-fingerprint
  /// and error records are skipped; duplicate job indices keep the
  /// record written last.
  std::map<std::size_t, std::vector<double>> load(std::size_t metric_count);

  /// Error messages of every stored error record of this fingerprint.
  std::map<std::size_t, std::string> load_errors();

  /// Persists one record durably (one write + flush): after append
  /// returns, a kill -9 cannot lose it. Throws std::runtime_error on
  /// I/O errors.
  void append(const StoreRecord& record);

  /// The one file this store reads and appends (inside the directory).
  const std::string& write_path() const noexcept { return write_path_; }

 private:
  std::string fp_hex_;
  std::string write_path_;
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace bas::store
