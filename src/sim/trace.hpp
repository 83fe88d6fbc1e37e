#pragma once
// Execution traces and their auditor.
//
// The simulator can record every executed slice (task, time window,
// frequency, battery current). The auditor re-checks from the trace
// alone that a run respected the real-time contract: no processor
// overlap, precedence order within each instance, every slice inside its
// instance's [release, deadline] window, and frequencies within the
// processor's range. Tests sweep random workloads through every scheme
// and require a clean audit — the paper's claim that the methodology
// never violates deadlines regardless of DVS policy or priority
// function.

#include <cstdint>
#include <string>
#include <vector>

#include "dvs/processor.hpp"
#include "taskgraph/set.hpp"

namespace bas::sim {

/// One contiguous stretch of execution of one task at one frequency.
struct ExecSlice {
  int graph = 0;
  std::uint32_t instance = 0;
  tg::NodeId node = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double freq_hz = 0.0;
  double current_a = 0.0;
  /// The instance's real [release, deadline] window, copied from the
  /// simulator's instance state (releases need not be k * period).
  double release_s = 0.0;
  double deadline_s = 0.0;
};

struct TraceAudit {
  bool ok = true;
  std::size_t overlap_violations = 0;
  std::size_t precedence_violations = 0;
  std::size_t window_violations = 0;   // slice outside [release, deadline]
  std::size_t frequency_violations = 0;
  std::size_t incomplete_instances = 0;  // released but not fully executed
  std::string first_problem;  // human-readable description of the first issue

  std::string summary() const;
};

/// Audits `trace` against the workload and processor. `drained` tells the
/// auditor whether the run guaranteed that every released instance was
/// completed (drain mode); when false, instances still in flight at the
/// end of the trace are not counted as incomplete.
TraceAudit audit_trace(const std::vector<ExecSlice>& trace,
                       const tg::TaskGraphSet& set,
                       const dvs::Processor& proc, bool drained);

}  // namespace bas::sim
