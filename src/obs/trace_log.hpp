#pragma once
// An in-memory Chrome-trace-event log (the about://tracing / Perfetto
// JSON format): named spans and instants on (pid, tid) tracks, written out as one `{"traceEvents": [...]}` document.
//
// One TraceLog serves both trace producers in the repo:
//
//   single sim run   the simulator emits release/completion instants
//                    and per-node execution spans (sim-time timeline,
//                    pid kSimPid, tid = graph)
//   whole campaign   the runner emits per-job spans (tid = worker) and
//                    fail markers (wall-clock timeline, pid
//                    kCampaignPid)
//
// The log is instrumentation only: it is attached through non-owning
// pointers (SimConfig::trace_log, RunnerOptions::trace_out), never
// enters a fingerprint, a sink or a store record, and recording it
// cannot perturb the byte-identity contract — a contract pinned by
// tests/test_obs.cpp and tests/trace_smoke.sh.
//
// Timestamps are microseconds (the format's unit). Sim-time producers
// pass sim seconds * 1e6; wall-clock producers use now_us(), measured
// from the log's construction. write() orders events by (pid, tid, ts)
// so every track is monotonically non-decreasing in ts — Perfetto does
// not require it, but it makes the file diffable and testable.
//
// Thread-safe: appends take one mutex. Producers that care about hot-
// path cost must simply not attach a log (the pointer checks are the
// only cost when detached).

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace bas::obs {

/// Track (process) ids — purely presentational, but fixed so tests,
/// tools and docs can name them. Pid 2 is unused; the campaign pid
/// stays 3 because trace consumers match on it.
constexpr int kSimPid = 1;       ///< sim-time tracks (slices, releases)
constexpr int kCampaignPid = 3;  ///< wall-clock runner tracks

/// One trace event. `ph` is the format's phase letter: 'X' complete
/// span, 'i' instant, 'M' metadata.
struct TraceEvent {
  std::string name;
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;       ///< 'X' only
  int pid = 0;
  int tid = 0;
  std::string args_json;     ///< pre-rendered object body, may be empty
};

class TraceLog {
 public:
  TraceLog();

  /// Wall-clock microseconds since this log was constructed — the
  /// timestamp base every wall-clock producer shares.
  double now_us() const;

  /// A complete span ('X').
  void span(std::string name, int pid, int tid, double ts_us, double dur_us,
            std::string args_json = {});
  /// An instant marker ('i').
  void instant(std::string name, int pid, int tid, double ts_us,
               std::string args_json = {});
  /// Names a pid's track in the viewer ('M' process_name metadata).
  void name_process(int pid, const std::string& name);

  std::size_t size() const;
  /// Events ordered by (pid, tid, ts) — exactly the write() order, so
  /// tests can assert per-track ts monotonicity without re-parsing.
  std::vector<TraceEvent> sorted_events() const;
  /// Number of events (any kind) with exactly this name — the query the
  /// trace-based arrival-rate diagnostic is built on.
  std::size_t count(const std::string& name) const;

  /// Renders the whole log as a trace-event JSON document.
  std::string to_json() const;
  /// Writes to_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace bas::obs
