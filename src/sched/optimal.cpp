#include "sched/optimal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "dvs/realizer.hpp"
#include "taskgraph/algorithms.hpp"

namespace bas::sched {

namespace {

constexpr double kEps = 1e-12;

struct StepOutcome {
  double duration_s = 0.0;
  double energy_j = 0.0;
};

/// Runs `cycles` of work when `remaining_wc` cycles must fit into
/// `window_s` seconds: frequency = remaining_wc / window realized on the
/// processor (possibly faster if below fmin — the task then simply
/// finishes early).
StepOutcome run_step(const dvs::Processor& proc, double remaining_wc_cycles,
                     double window_s, double cycles) {
  if (window_s <= kEps) {
    // Degenerate window: run flat out (only reachable when wc fills the
    // deadline exactly and actuals equal wc).
    window_s = cycles / proc.fmax_hz();
  }
  const double fref = remaining_wc_cycles / window_s;
  const auto plan = dvs::realize(proc, fref);
  StepOutcome out;
  out.duration_s = cycles / plan.effective_freq_hz;
  out.energy_j = out.duration_s * dvs::plan_core_power_w(proc, plan);
  return out;
}

void check_inputs(const tg::TaskGraph& graph,
                  const std::vector<double>& actual_cycles) {
  if (actual_cycles.size() != graph.node_count()) {
    throw std::invalid_argument("single-graph run: actuals size mismatch");
  }
  for (std::size_t i = 0; i < actual_cycles.size(); ++i) {
    if (!(actual_cycles[i] > 0.0) ||
        actual_cycles[i] > graph.node(static_cast<tg::NodeId>(i)).wcet_cycles +
                               kEps) {
      throw std::invalid_argument(
          "single-graph run: actual cycles must be in (0, wc]");
    }
  }
}

std::vector<std::uint64_t> predecessor_masks(const tg::TaskGraph& graph) {
  if (graph.node_count() > 64) {
    throw std::invalid_argument("single-graph run: more than 64 nodes");
  }
  std::vector<std::uint64_t> masks(graph.node_count(), 0);
  for (tg::NodeId id = 0; id < graph.node_count(); ++id) {
    for (tg::NodeId p : graph.predecessors(id)) {
      masks[id] |= (1ULL << p);
    }
  }
  return masks;
}

}  // namespace

SingleGraphResult evaluate_order(const tg::TaskGraph& graph,
                                 const std::vector<double>& actual_cycles,
                                 const dvs::Processor& proc,
                                 const std::vector<tg::NodeId>& order) {
  check_inputs(graph, actual_cycles);
  if (!tg::is_topological_order(graph, order)) {
    throw std::invalid_argument("evaluate_order: not a topological order");
  }
  SingleGraphResult result;
  result.order = order;
  double remaining_wc = graph.total_wcet_cycles();
  double t = 0.0;
  double energy = 0.0;
  for (tg::NodeId id : order) {
    const auto step = run_step(proc, remaining_wc, graph.deadline() - t,
                               actual_cycles[id]);
    t += step.duration_s;
    energy += step.energy_j;
    remaining_wc -= graph.node(id).wcet_cycles;
  }
  result.finish_time_s = t;
  result.energy_j = energy;
  return result;
}

SingleGraphResult greedy_schedule(const tg::TaskGraph& graph,
                                  const std::vector<double>& actual_cycles,
                                  const dvs::Processor& proc,
                                  PriorityPolicy& priority,
                                  Estimator& estimator) {
  check_inputs(graph, actual_cycles);
  const auto pred_masks = predecessor_masks(graph);
  const std::size_t n = graph.node_count();

  SingleGraphResult result;
  result.order.reserve(n);
  std::uint64_t done = 0;
  double remaining_wc = graph.total_wcet_cycles();
  double t = 0.0;
  double energy = 0.0;
  const std::uint64_t all = (n == 64) ? ~0ULL : ((1ULL << n) - 1);

  while (done != all) {
    tg::NodeId best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    bool found = false;
    for (tg::NodeId id = 0; id < n; ++id) {
      if ((done & (1ULL << id)) || (pred_masks[id] & ~done)) {
        continue;  // finished or not yet ready
      }
      Candidate cand;
      cand.graph = 0;
      cand.node = id;
      cand.wc_cycles = graph.node(id).wcet_cycles;
      cand.estimate_cycles =
          estimator.estimate(0, id, cand.wc_cycles, actual_cycles[id]);
      cand.graph_abs_deadline_s = graph.deadline();
      cand.graph_remaining_wc_cycles = remaining_wc;
      cand.edf_position = 0;
      const double s = priority.score(cand, t);
      if (!found || s < best_score ||
          (s == best_score && id < best)) {
        best = id;
        best_score = s;
        found = true;
      }
    }
    const auto step =
        run_step(proc, remaining_wc, graph.deadline() - t, actual_cycles[best]);
    t += step.duration_s;
    energy += step.energy_j;
    remaining_wc -= graph.node(best).wcet_cycles;
    done |= (1ULL << best);
    result.order.push_back(best);
    estimator.observe(0, best, actual_cycles[best]);
  }
  result.finish_time_s = t;
  result.energy_j = energy;
  return result;
}

namespace {

/// Branch & bound machinery shared across the recursion.
struct Search {
  const tg::TaskGraph& graph;
  const std::vector<double>& actuals;
  const dvs::Processor& proc;
  std::vector<std::uint64_t> pred_masks;
  std::uint64_t all_mask = 0;
  double deadline = 0.0;
  double min_energy_per_cycle = 0.0;  // admissible floor, J/cycle

  std::uint64_t budget = 0;
  std::uint64_t explored = 0;
  bool exact = true;

  double best_energy = std::numeric_limits<double>::infinity();
  double best_finish = 0.0;
  std::vector<tg::NodeId> best_order{};
  std::vector<tg::NodeId> current{};

  // Pareto memo: per completed-set, (time, energy) pairs already seen;
  // a new state dominated in both coordinates cannot improve.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      memo{};

  double lower_bound(double t, double remaining_ac) const {
    if (remaining_ac <= 0.0) {
      return 0.0;
    }
    const double window = deadline - t;
    if (window <= kEps) {
      // Past the deadline: only fmax energy is possible.
      const auto& top = proc.points().back();
      return remaining_ac * proc.energy_per_cycle_j(top);
    }
    if (proc.continuous()) {
      // Clairvoyant constant speed sc = AC/(D-t) is a floor on every
      // later task's speed (monotone under the ccEDF speed rule), and
      // energy/cycle grows with speed -> admissible bound.
      const double sc =
          std::min(remaining_ac / window, proc.fmax_hz());
      const double v = proc.voltage_at(std::max(sc, kEps));
      return remaining_ac * proc.ceff_farad() * v * v;
    }
    return remaining_ac * min_energy_per_cycle;
  }

  bool dominated(std::uint64_t mask, double t, double energy) {
    auto& entries = memo[mask];
    for (const auto& [pt, pe] : entries) {
      if (pt <= t + 1e-12 && pe <= energy + 1e-12) {
        return true;
      }
    }
    // Keep the frontier small: drop entries this state dominates.
    std::erase_if(entries, [&](const std::pair<double, double>& e) {
      return t <= e.first + 1e-12 && energy <= e.second + 1e-12;
    });
    entries.emplace_back(t, energy);
    return false;
  }

  void dfs(std::uint64_t done, double t, double energy, double remaining_wc,
           double remaining_ac) {
    if (done == all_mask) {
      if (energy < best_energy) {
        best_energy = energy;
        best_finish = t;
        best_order = current;
      }
      return;
    }
    if (explored >= budget) {
      exact = false;
      return;
    }
    ++explored;
    if (energy + lower_bound(t, remaining_ac) >= best_energy) {
      return;
    }
    if (dominated(done, t, energy)) {
      return;
    }
    for (tg::NodeId id = 0; id < graph.node_count(); ++id) {
      if ((done & (1ULL << id)) || (pred_masks[id] & ~done)) {
        continue;
      }
      const auto step =
          run_step(proc, remaining_wc, deadline - t, actuals[id]);
      current.push_back(id);
      dfs(done | (1ULL << id), t + step.duration_s, energy + step.energy_j,
          remaining_wc - graph.node(id).wcet_cycles,
          remaining_ac - actuals[id]);
      current.pop_back();
      if (explored >= budget) {
        exact = false;
        return;
      }
    }
  }
};

}  // namespace

SingleGraphResult optimal_schedule(const tg::TaskGraph& graph,
                                   const std::vector<double>& actual_cycles,
                                   const dvs::Processor& proc,
                                   std::uint64_t node_budget) {
  check_inputs(graph, actual_cycles);

  // Seed the incumbent with the strongest greedy: pUBS + oracle.
  const auto pubs = make_pubs_priority();
  const auto oracle = make_oracle_estimator();
  const auto seed = greedy_schedule(graph, actual_cycles, proc, *pubs, *oracle);

  Search search{.graph = graph, .actuals = actual_cycles, .proc = proc,
                .pred_masks = predecessor_masks(graph),
                .deadline = graph.deadline()};
  const std::size_t n = graph.node_count();
  search.all_mask = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  search.budget = node_budget;
  search.best_energy = seed.energy_j;
  search.best_finish = seed.finish_time_s;
  search.best_order = seed.order;
  double min_epc = std::numeric_limits<double>::infinity();
  for (const auto& op : proc.points()) {
    min_epc = std::min(min_epc, proc.energy_per_cycle_j(op));
  }
  search.min_energy_per_cycle = min_epc;

  double total_ac = 0.0;
  for (double ac : actual_cycles) {
    total_ac += ac;
  }
  search.dfs(0, 0.0, 0.0, graph.total_wcet_cycles(), total_ac);

  SingleGraphResult result;
  result.order = search.best_order;
  result.energy_j = search.best_energy;
  result.finish_time_s = search.best_finish;
  result.exact = search.exact;
  result.explored = search.explored;
  return result;
}

}  // namespace bas::sched
