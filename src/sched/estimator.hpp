#pragma once
// Estimators of a task's actual computation demand (the paper's Xk).
//
// "Xk is the estimate of the amount of CPU cycles that task τk is
// actually going to require ... even if the estimate is wrong no
// deadlines are violated. However, the accuracy of the estimate
// determines the optimality of the schedule. ... One [technique] is to
// keep history of previous instances of each task." (§4.2)

#include <cstdint>
#include <memory>
#include <string>

#include "taskgraph/graph.hpp"

namespace bas::sched {

class Estimator {
 public:
  virtual ~Estimator() = default;

  virtual std::string name() const = 0;

  /// Estimate of the actual cycles task (graph, node) will take this
  /// instance. `actual_cycles` is the ground truth — only the oracle may
  /// look at it; it exists so all estimators share one call signature.
  virtual double estimate(int graph, tg::NodeId node, double wc_cycles,
                          double actual_cycles) = 0;

  /// Feedback after the task completes, for history-based estimators.
  virtual void observe(int /*graph*/, tg::NodeId /*node*/,
                       double /*actual_cycles*/) {}

  virtual void reset() {}
};

/// Pessimistic: Xk = wc. Turns pUBS into a no-information heuristic
/// (every denominator degenerates); the lower bound of estimator quality.
std::unique_ptr<Estimator> make_worst_case_estimator();

/// Static expectation: Xk = fraction * wc. The simulator draws actuals
/// from U(0.2, 1.0) * wc, so fraction defaults to the mean 0.6.
std::unique_ptr<Estimator> make_mean_fraction_estimator(double fraction = 0.6);

/// Exponential moving average over observed actuals of the same
/// (graph, node), seeded at 0.6 * wc — the paper's "keep history of
/// previous instances" suggestion.
std::unique_ptr<Estimator> make_history_estimator(double alpha = 0.3);

/// Clairvoyant: Xk = actual. Upper bound of estimator quality; with it
/// pUBS is near-optimal (within ~1% for independent tasks, per Gruian).
std::unique_ptr<Estimator> make_oracle_estimator();

/// "Accurate but imperfect": Xk = actual * (1 + U(-rel_noise, rel_noise)),
/// clamped into (0, wc]. Models a well-profiled task whose demand is
/// predicted from its inputs — the regime the paper's Table 1 assumes
/// for pUBS ("if the estimate is very accurate then the schedule
/// obtained will be near optimal").
std::unique_ptr<Estimator> make_noisy_oracle_estimator(
    double rel_noise = 0.25, std::uint64_t seed = 1);

}  // namespace bas::sched
