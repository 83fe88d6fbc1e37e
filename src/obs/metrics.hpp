#pragma once
// The unified metrics registry: one named-counter/gauge surface over
// the simulator's PerfCounters and its per-kernel battery k_* counters.
//
// A Metrics is an ORDERED registry: entries keep insertion order, names
// are unique (set() on an existing name overwrites its value, never
// duplicates the entry), and the standard filler below always registers
// the same names in the same order — which is what makes the flat
// bas-perf/7 JSON emitted by bench/perf_hotpath stable across runs and
// builds (tests/test_obs.cpp pins uniqueness and stability). The
// perf_hotpath gate compares every kCounter entry of a cell with the
// baseline for exact equality, so a counter registered here is gated.
//
// Values are doubles: every counter in the repo is far below 2^53, so
// integral counters round-trip exactly; kCounter/kGauge only marks
// whether a value accumulates (counters sum across replicates) or
// samples a level (gauges take the latest/max).

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace bas::sim {
struct PerfCounters;
}

namespace bas::obs {

enum class MetricKind { kCounter, kGauge };

class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    MetricKind kind = MetricKind::kCounter;
  };

  /// Registers `name` (keeping insertion order) or overwrites its
  /// value; the kind is fixed by the first registration.
  void set(const std::string& name, double value,
           MetricKind kind = MetricKind::kCounter);
  /// set(name, value(name) + delta) — registers at 0 when absent.
  void add(const std::string& name, double delta,
           MetricKind kind = MetricKind::kCounter);

  bool has(const std::string& name) const;
  /// Throws std::out_of_range when absent.
  double value(const std::string& name) const;

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Renders a double the way the registry's consumers print it: integral
/// values (every counter) as plain integers, everything else %.6g.
std::string format_value(double value);

/// Registers the simulator hot-path lanes (steps, battery_draws, ...)
/// and the per-kernel battery counters (k_*) — the exact flat names of
/// the bas-perf/7 cell schema, in schema order. All are kCounter.
void fill(Metrics& metrics, const sim::PerfCounters& perf);

}  // namespace bas::obs
