#pragma once
// Machine-readable sinks for experiment results.
//
// Both formats emit one record per cell with the axis labels and the
// full per-metric statistics (count, mean, stddev, min, max, sum).
// Doubles render with %.17g, so equal results are byte-identical files —
// the property the determinism guarantee (runner.hpp) is verified
// against: a sweep written at --jobs 1 and --jobs 4 diffs empty.

#include <string>

#include "exp/experiment.hpp"

namespace bas::util {
class Cli;
}

namespace bas::exp {

/// The engine's canonical double rendering: %.17g, the shortest fixed
/// precision that round-trips every finite double. The sinks AND the
/// campaign store (store/store.hpp) must share it — the
/// merge/resume byte-identity contract breaks if their precisions
/// ever diverge.
std::string format_double(double value);

/// Long-format CSV: header `axis...,metric_stat...`, one row per cell.
std::string to_csv(const ExperimentResult& result);

/// JSON object with the title, axes, metric names and a cells array.
std::string to_json(const ExperimentResult& result);

/// Writes CSV — or JSON when `path` ends in ".json". Throws
/// std::runtime_error when the file cannot be opened.
void write(const ExperimentResult& result, const std::string& path);

/// The drivers' --csv tail: when --csv PATH is set, write(result, PATH)
/// and print "wrote PATH" to stdout.
void write_csv_option(const util::Cli& cli, const ExperimentResult& result);

}  // namespace bas::exp
