#pragma once
// Declarative experiments: a grid of cells, a fixed set of named
// metrics, and a pure job function evaluated once per (cell, replicate).
// The Runner (runner.hpp) expands the grid into jobs, executes them on a
// thread pool, and folds the per-job metrics into per-cell Accumulators
// in job order — so aggregates are bit-identical for any thread count.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/job.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bas::exp {

struct ExperimentSpec {
  /// Shown in error messages, progress lines and the campaign trace;
  /// part of the store fingerprint (plan.hpp).
  std::string title;
  Grid grid;
  /// Names of the values every job returns, in order.
  std::vector<std::string> metrics;
  /// Replicates per cell (the paper's "100 random task graph sets").
  int replicates = 1;
  /// Root seed; all job seeds are derived from it (see job.hpp).
  std::uint64_t seed = 1;
  /// Extra identity folded into spec_fingerprint() (plan.hpp): driver
  /// parameters the run function captures in its closure (battery
  /// label, horizon, utilization, ...) that change job outputs without
  /// changing grid/metrics/seed. Set it from Cli::config_summary() so
  /// the resume cache is invalidated when any such parameter changes.
  std::string config;

  /// Evaluates one job and returns exactly metrics.size() values. MUST
  /// be thread-safe: build schemes, batteries and workloads locally from
  /// the job's seeds; never mutate state shared between jobs.
  std::function<std::vector<double>(const Job&)> run;

  std::size_t job_count() const {
    return grid.cell_count() * static_cast<std::size_t>(replicates);
  }
};

/// Aggregates of one cell: an Accumulator per metric, fed in replicate
/// order.
struct CellStats {
  std::vector<util::Accumulator> metrics;
};

class ExperimentResult {
 public:
  ExperimentResult(std::string title, Grid grid,
                   std::vector<std::string> metric_names);

  const Grid& grid() const noexcept { return grid_; }
  const std::vector<std::string>& metric_names() const noexcept {
    return metric_names_;
  }
  std::size_t cell_count() const noexcept { return cells_.size(); }

  /// Index of a metric by name; throws std::out_of_range when absent.
  std::size_t metric_index(const std::string& name) const;

  const util::Accumulator& at(std::size_t cell, std::size_t metric) const;
  const util::Accumulator& at(const std::vector<std::size_t>& coord,
                              std::size_t metric) const {
    return at(grid_.index(coord), metric);
  }

  double mean(std::size_t cell, std::size_t metric) const {
    return at(cell, metric).mean();
  }
  double mean(const std::vector<std::size_t>& coord,
              std::size_t metric) const {
    return at(coord, metric).mean();
  }
  double sum(std::size_t cell, std::size_t metric) const {
    return at(cell, metric).sum();
  }
  double sum(const std::vector<std::size_t>& coord, std::size_t metric) const {
    return at(coord, metric).sum();
  }

  /// Default rendering: one row per cell — axis labels first, then the
  /// mean of every metric with `precision` decimals.
  util::Table table(int precision = 2) const;

  /// Mutable cell access for the Runner's aggregation pass.
  CellStats& cell(std::size_t cell) { return cells_.at(cell); }
  const CellStats& cell(std::size_t cell) const { return cells_.at(cell); }

 private:
  std::string title_;
  Grid grid_;
  std::vector<std::string> metric_names_;
  std::vector<CellStats> cells_;
};

}  // namespace bas::exp
