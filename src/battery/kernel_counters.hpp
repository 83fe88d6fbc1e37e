#pragma once
// Per-kernel battery work counters.
//
// Counting is always on — a handful of integer increments on paths
// that already touch the same cache lines; an A/B of the former
// compile-out switch measured 1.001x. The counters live on the
// Battery and are cleared by Battery::reset(); the simulator copies
// them into SimResult::perf.kernel when SimConfig::record_perf_counters
// is set, and bench/perf_hotpath reports them per cell as its k_*
// metrics, byte-compared against bench/perf_baseline.csv.
//
// The counters are instrumentation only: they never change a simulated
// number or enter a cache record, so they cannot perturb the
// byte-identity contract.

#include <cstdint>

namespace bas::bat {

/// Per-kernel work counters (see EXPERIMENTS.md, "Kernel
/// instrumentation" for the table).
struct KernelCounters {
  /// Scalar std::exp evaluations: one per diffusion series probe (the
  /// strength-reduced series takes one exp for all its terms) and one
  /// per KiBaM closed-form step, the stochastic cell's probe included.
  std::uint64_t exp_calls = 0;
  /// Stochastic slots stepped (one per fixed-width slot, including a
  /// final partial slot and the slot the cell dies in).
  std::uint64_t slots = 0;
  /// Stochastic slots whose Bernoulli-rounded recovery moved at least
  /// one whole quantum — the slots off the fused loop's fast path.
  std::uint64_t slot_transfers = 0;

  void clear() { *this = KernelCounters{}; }
};

}  // namespace bas::bat
