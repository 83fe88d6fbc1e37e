#pragma once
// Priority functions for choosing the next ready task — the "local
// ordering" half of the methodology (§4.2).
//
// A PriorityPolicy assigns every ready candidate a score; the scheduler
// runs the lowest-scoring candidate that passes the feasibility check.
// Scores need only be comparable within one decision instant.

#include <cstdint>
#include <memory>
#include <string>

#include "taskgraph/graph.hpp"
#include "util/rng.hpp"

namespace bas::sched {

/// A ready (precedence-satisfied) task instance offered to the policy.
struct Candidate {
  /// Graph index within the TaskGraphSet.
  int graph = 0;
  tg::NodeId node = 0;
  /// Worst-case cycles of this node.
  double wc_cycles = 0.0;
  /// Ground-truth actual cycles (oracle estimators only).
  double actual_cycles = 0.0;
  /// Estimate Xk filled in from the scheme's Estimator.
  double estimate_cycles = 0.0;
  /// Absolute deadline of the candidate's graph instance (s).
  double graph_abs_deadline_s = 0.0;
  /// Worst-case cycles still pending in that instance, including this
  /// node (the paper's remaining work behind speed s_o).
  double graph_remaining_wc_cycles = 0.0;
  /// Rank of the candidate's graph in the current EDF order
  /// (0 = most imminent deadline). Drives the feasibility check depth.
  int edf_position = 0;
};

class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;

  virtual std::string name() const = 0;

  /// Score for one candidate at time `now`; lower runs first. Ties are
  /// broken deterministically by (graph, node) in the scheduler.
  virtual double score(const Candidate& candidate, double now) = 0;

  /// True when score() consumes randomness from an internal stream.
  /// The simulator must then score every candidate at every decision
  /// point — even lone candidates whose order cannot matter — so the
  /// stream advances once per candidate whatever the ready-list size
  /// (the draw sequence the goldens pin).
  virtual bool stochastic() const { return false; }

  /// True when score() reads Candidate::estimate_cycles. When false the
  /// scheduler may skip the estimator lookup for this policy's
  /// candidates (the estimator still observes every completion, so
  /// skipping the read changes nothing observable).
  virtual bool uses_estimate() const { return false; }

  virtual void reset() {}
};

/// Gruian's near-optimal uncertainty-based priority:
///
///   pUBS(o, τk) = Xk / (s_o^2 − s_{o,k}^2)
///
/// with s_o the speed required after the executed partial order o
/// (remaining worst case / time to deadline) and s_{o,k} the speed after
/// additionally running τk for its estimated Xk cycles. Small Xk relative
/// to wc_k means a large expected slack recovery, hence a small score.
/// When Xk == wc_k the denominator vanishes — no recovery is expected —
/// and the candidate scores "+infinity"-like, ordered by Xk.
std::unique_ptr<PriorityPolicy> make_pubs_priority();

/// Largest Task First on worst-case cycles (the heuristic of Zhu,
/// Melhem & Childers [16] that Table 1 compares against).
std::unique_ptr<PriorityPolicy> make_ltf_priority();

/// Shortest Task First on worst-case cycles (Figure 4's counterpart).
std::unique_ptr<PriorityPolicy> make_stf_priority();

/// Uniform random order — the paper's "Random" row.
std::unique_ptr<PriorityPolicy> make_random_priority(std::uint64_t seed);

/// Deterministic first-in-first-out on (graph, node) — canonical order.
std::unique_ptr<PriorityPolicy> make_fifo_priority();

}  // namespace bas::sched
