#pragma once
// Per-kernel battery cache/work counters (the MAGPIE BENCH_NOTES
// recipe: land cheap hit/miss counters *before* optimizing, so every
// kernel win is attributable).
//
// Counting is always on — a handful of integer increments on paths
// that already touch the same cache lines; an A/B of the former
// compile-out switch measured 1.001x. The counters live on the Battery
// and are cleared by Battery::reset(); the simulator copies them into
// SimResult::perf.kernel when SimConfig::record_perf_counters is set,
// which is how bench/perf_hotpath surfaces them per cell.
//
// The counters are instrumentation only: they never enter a sink or a
// cache record, so they cannot perturb the byte-identity contract.

#include <cstdint>

namespace bas::bat {

/// Per-kernel work and memo-hit counters. Semantics per field are tied
/// to the kernel that owns them (see EXPERIMENTS.md, "Kernel
/// instrumentation" for the full table).
struct KernelCounters {
  /// Full per-term exponential sweeps (diffusion: one e^{-rate·t} per
  /// series term).
  std::uint64_t exp_sweeps = 0;
  /// Scalar std::exp evaluations across all kernels (a sweep of M terms
  /// counts M; the strength-reduced fast series counts 1 per probe).
  std::uint64_t exp_calls = 0;
  /// Diffusion t-keyed decay buffer: reuse vs refill (a miss is one
  /// exp_sweep).
  std::uint64_t decay_hits = 0;
  std::uint64_t decay_misses = 0;
  /// Diffusion (t, I)-keyed gain buffer: reuse vs refill.
  std::uint64_t gain_hits = 0;
  std::uint64_t gain_misses = 0;
  /// KiBaM wells_after steps: one shared e^{-kt} serving both wells
  /// (each saves one exp vs the two-call formula).
  std::uint64_t kibam_shared_exps = 0;
  /// Peukert (current -> effective rate) memo: a hit skips the pow.
  std::uint64_t pow_hits = 0;
  std::uint64_t pow_misses = 0;
  /// Diffusion strength-reduced interval advances (the merged-window
  /// fast series: 1 exp per probe instead of one per term).
  std::uint64_t fast_advances = 0;
  /// Stochastic slots stepped (one per fixed-width slot, including a
  /// final partial slot and the slot the cell dies in).
  std::uint64_t slots = 0;
  /// Stochastic slots whose Bernoulli-rounded recovery moved at least
  /// one whole quantum — the slots off the fused loop's fast path.
  std::uint64_t slot_transfers = 0;

  void clear() { *this = KernelCounters{}; }

  KernelCounters& operator+=(const KernelCounters& o) {
    exp_sweeps += o.exp_sweeps;
    exp_calls += o.exp_calls;
    decay_hits += o.decay_hits;
    decay_misses += o.decay_misses;
    gain_hits += o.gain_hits;
    gain_misses += o.gain_misses;
    kibam_shared_exps += o.kibam_shared_exps;
    pow_hits += o.pow_hits;
    pow_misses += o.pow_misses;
    fast_advances += o.fast_advances;
    slots += o.slots;
    slot_transfers += o.slot_transfers;
    return *this;
  }
};

}  // namespace bas::bat
