#pragma once
// The benchmark's campaign workloads. Each is a fixed job manifest (an
// exp::Grid times replicates) plus a thread-safe job function that
// builds its own workload, scheme and battery from the job's seeds —
// exactly what the repo's bench/ programs hand to exp::Runner.
//
//   table2-kibam     paper-table2, the five Table 2 schemes on KiBaM,
//                    100 sets run to battery death (500 jobs). Decision
//                    loop: sim + sched + dvs; KiBaM is a small share.
//   idle-stochastic  idle-heavy on its stochastic cell, the five schemes,
//                    20 sets (100 jobs). The battery kernel dominates.
//   fig6-energy      paper-fig6: graph counts 2..10 x {near-optimal,
//                    four ordering schemes} x 40 sets (1000 short jobs),
//                    60 s drained horizon, no battery; results go through
//                    the JSONL campaign store and are merged back. Widest
//                    ready lists, so sched scoring dominates.

#include <functional>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/job.hpp"
#include "layers.hpp"

namespace perfbench {

enum class Size {
  kFull,   // the measured campaign sizes above
  kSmoke,  // a few sets per cell: every workload in seconds
};

struct Workload {
  std::string name;
  bas::exp::Grid grid;
  /// Names of the doubles every job returns, in order.
  std::vector<std::string> metrics;
  int replicates = 1;
  /// Write results through the JSONL campaign store and read them back
  /// with a merge-only Runner::run.
  bool use_store = false;
  /// The paper's Table 2 lifetimes (min), one per cell of the scheme
  /// axis; empty when the workload has no paper reference.
  std::vector<double> paper_lifetime_min;
  std::size_t lifetime_metric = 0;
  /// Evaluates one job; must be thread-safe.
  std::function<std::vector<double>(const bas::exp::Job&, JobProbe&)> run;
  /// Result check of one job's metrics: empty when they pass, else why
  /// not. The metric arity is checked by the caller.
  std::function<std::string(const std::vector<double>&)> check;
};

const std::vector<std::string>& workload_names();

/// Builds a workload by name; throws std::invalid_argument on an unknown
/// one. Looks up its scenario and platform, so callers time it as part
/// of campaign set-up.
Workload make_workload(const std::string& name, Size size);

}  // namespace perfbench
