#pragma once
// Workload construction: turns a bag of random task graphs into a
// periodic task-graph set with an exact target worst-case utilization,
// reproducing the paper's setup ("Utilization of the system was kept to
// 70%", §5).

#include "taskgraph/set.hpp"
#include "tgff/generator.hpp"
#include "util/rng.hpp"

namespace bas::tgff {

struct WorkloadParams {
  /// Number of task graphs in the set.
  int graph_count = 3;
  /// Node count per graph drawn uniformly from [min_nodes, max_nodes]
  /// (the paper's sets use graphs of 5..15 nodes).
  int min_nodes = 5;
  int max_nodes = 15;
  /// Target worst-case utilization at fmax (0 < u <= 1).
  double target_utilization = 0.7;
  /// Maximum processor frequency the utilization refers to.
  double fmax_hz = 1.0e9;
  /// Periods drawn log-uniformly from [period_lo_s, period_hi_s]; node
  /// wcets are then rescaled so the set hits the target utilization
  /// exactly while the random structure and relative wcets are kept.
  double period_lo_s = 0.1;
  double period_hi_s = 1.0;
  /// How unevenly utilization is split across graphs: each graph gets a
  /// weight drawn from [1, 1 + utilization_spread].
  double utilization_spread = 0.5;
  /// Structural knobs forwarded to the graph generator.
  GeneratorParams shape;
};

/// The parameter range checks: graph_count >= 1, target_utilization in
/// (0, 2], 1 <= min_nodes <= max_nodes, 0 < period_lo_s <= period_hi_s.
/// Throws std::invalid_argument naming the violated range. make_workload
/// runs it first; parse-time callers (scenario::apply_cli_overrides) run
/// it on the effective parameters so a bad override fails before any job.
void validate(const WorkloadParams& params);

/// Builds a validated periodic task-graph set hitting the target
/// utilization exactly (up to floating-point rounding). Throws like
/// validate(params).
tg::TaskGraphSet make_workload(const WorkloadParams& params, util::Rng& rng);

/// Convenience: the paper's evaluation workload — `graph_count` graphs of
/// 5..15 nodes at 70% utilization on a 1 GHz-max processor.
tg::TaskGraphSet paper_workload(int graph_count, util::Rng& rng);

}  // namespace bas::tgff
