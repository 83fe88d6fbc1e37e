#pragma once
// Priority functions for choosing the next ready task — the "local
// ordering" half of the methodology (§4.2).
//
// A PriorityPolicy assigns every ready candidate a score; the scheduler
// runs the lowest-scoring candidate that passes the feasibility check.
// Scores need only be comparable within one decision instant.

#include <cstdint>
#include <limits>
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

/// The terms of Gruian's pUBS that depend only on the decision instant
/// and the candidate's graph (its deadline and remaining worst case), so
/// every ready node of one graph shares them.
struct PubsGraphTerms {
  double time_left = 0.0;
  /// Speed after the current partial order: all remaining worst case by
  /// the deadline. 0 when time_left is at/below pubs_score's epsilon,
  /// where pubs_score returns before reading it.
  double s_o = 0.0;
  double s_o_sq = 0.0;
  double remaining_wc_cycles = 0.0;
};

inline constexpr double kPubsEps = 1e-12;

inline PubsGraphTerms pubs_graph_terms(double now, double graph_abs_deadline_s,
                                       double graph_remaining_wc_cycles) {
  PubsGraphTerms g;
  g.time_left = graph_abs_deadline_s - now;
  g.s_o = g.time_left > kPubsEps ? graph_remaining_wc_cycles / g.time_left
                                 : 0.0;
  g.s_o_sq = g.s_o * g.s_o;
  g.remaining_wc_cycles = graph_remaining_wc_cycles;
  return g;
}

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
///
/// The one copy of the formula: PubsPriority::score and the simulator's
/// ready-list pass (which computes `g` once per graph) both call it.
inline double pubs_score(const PubsGraphTerms& g, double estimate_cycles,
                         double wc_cycles) {
  if (g.time_left <= kPubsEps) {
    return -std::numeric_limits<double>::infinity();  // run immediately
  }
  if (g.s_o <= kPubsEps) {
    return std::numeric_limits<double>::infinity();
  }
  // Run τk next at s_o for its estimated Xk cycles...
  const double x_k = estimate_cycles;
  const double t_after = g.time_left - x_k / g.s_o;
  const double rem_after = g.remaining_wc_cycles - wc_cycles;
  if (t_after <= kPubsEps) {
    // Estimate fills (or overfills) the window; no recovery possible.
    return std::numeric_limits<double>::max();
  }
  // ...then the speed needed for what is left.
  const double s_ok = rem_after / t_after;
  const double denom = g.s_o_sq - s_ok * s_ok;
  if (denom <= kPubsEps * g.s_o * g.s_o) {
    // Xk == wc_k (or worse estimate): zero expected recovery. Order
    // these after every task with genuine recovery, larger Xk last.
    return 0.5 * std::numeric_limits<double>::max() *
           (x_k / (x_k + wc_cycles + 1.0));
  }
  return x_k / denom;
}

/// pUBS as a PriorityPolicy. Public and final so the simulator can
/// recognise it by type and score its candidates inline.
class PubsPriority final : public PriorityPolicy {
 public:
  std::string name() const override { return "pUBS"; }
  bool uses_estimate() const override { return true; }
  double score(const Candidate& cand, double now) override {
    return pubs_score(pubs_graph_terms(now, cand.graph_abs_deadline_s,
                                       cand.graph_remaining_wc_cycles),
                      cand.estimate_cycles, cand.wc_cycles);
  }
};

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
