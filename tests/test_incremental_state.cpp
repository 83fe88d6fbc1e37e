// Incremental scheduler-state contracts (see simulator.cpp, "incremental
// maintenance").
//
// The simulator does not rebuild the EDF order and the status snapshot
// at every decision point — it maintains both persistently
// (insert at release, erase at completion, write-through of the running
// graph's dynamic fields, a sorted watch for deadline expiry). All of
// it is contracted to be
// *bitwise* invisible: the maintained structures must equal a
// from-scratch rebuild at every decision point, and a run with the
// machinery enabled must produce the same bytes as the seed's
// rebuild-everything loop (pinned end-to-end by golden_bit_identity).
// These tests fuzz that equivalence across scenarios x arrival
// processes x schemes via SimConfig::check_incremental_state, which
// makes the simulator rebuild through the ORIGINAL util::insertion_sort
// path at every decision point and throw std::logic_error on any
// divergence.
//
// The pUBS hoist (sched::pubs_graph_terms: time_left, s_o and s_o^2
// computed once per graph and shared by its ready nodes in the
// simulator's ready-list pass) is pinned separately against an
// unhoisted reference copy of the scoring arithmetic — EXPECT_EQ on
// doubles, no tolerance.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "scenario/scenario.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

sim::SimResult run_cell(const std::string& scenario_name,
                        const std::string& arrival_model,
                        core::SchemeKind kind, bool check,
                        std::uint64_t seed) {
  const auto& spec = scenario::scenario(scenario_name);
  util::Rng rng(seed);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(seed, 1000u));
  config.arrival.model = arrival_model;
  config.horizon_s = 600.0;  // bounded fuzz cells, not lifetime runs
  config.record_perf_counters = true;
  config.check_incremental_state = check;
  auto battery = scenario::make_battery(spec.battery);
  return sim::simulate_scheme(set, proc, kind, config, battery.get());
}

/// Exact equality of every headline result field — the check flag is
/// instrumentation, so flag-on and flag-off runs must not differ by a
/// single bit.
void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.end_time_s, b.end_time_s) << label;
  EXPECT_EQ(a.energy_j, b.energy_j) << label;
  EXPECT_EQ(a.charge_c, b.charge_c) << label;
  EXPECT_EQ(a.busy_s, b.busy_s) << label;
  EXPECT_EQ(a.instances_released, b.instances_released) << label;
  EXPECT_EQ(a.instances_completed, b.instances_completed) << label;
  EXPECT_EQ(a.nodes_executed, b.nodes_executed) << label;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << label;
  EXPECT_EQ(a.frequency_increases, b.frequency_increases) << label;
  EXPECT_EQ(a.battery_lifetime_s, b.battery_lifetime_s) << label;
  EXPECT_EQ(a.battery_delivered_mah, b.battery_delivered_mah) << label;
}

TEST(IncrementalState, MaintainedStateMatchesRebuildAcrossFuzzGrid) {
  // Every decision point of every cell re-verifies the maintained EDF
  // order and status snapshot against the original rebuild path; a
  // single diverging element throws out of simulate_scheme and fails
  // the cell. The grid crosses a dense and a sparse world with every
  // non-trace arrival model and every Table 2 scheme.
  const std::vector<std::string> scenarios{"paper-table2", "sporadic-sensor"};
  const std::vector<std::string> arrivals{"periodic", "sporadic", "poisson",
                                          "ippp"};
  std::uint64_t seed = 20260808;
  for (const auto& scenario_name : scenarios) {
    for (const auto& arrival : arrivals) {
      for (const auto kind : core::table2_schemes()) {
        ++seed;  // distinct workloads per cell: more trajectories fuzzed
        const std::string label =
            scenario_name + "/" + arrival + "/" + core::to_string(kind);
        sim::SimResult checked;
        ASSERT_NO_THROW(
            checked = run_cell(scenario_name, arrival, kind, true, seed))
            << label;
        const auto plain = run_cell(scenario_name, arrival, kind, false, seed);
        expect_bitwise_equal(checked, plain, label);
      }
    }
  }
}

TEST(IncrementalState, CountersAttributeTheIncrementalWork) {
  // BAS-2 on the dense cell: the maintained EDF order counts its
  // inserts/erases.
  const auto r = run_cell("paper-table2", "periodic", core::SchemeKind::kBas2,
                          false, 5);
  EXPECT_GT(r.perf.edf_incremental_ops, 0u);
}

// ---------------------------------------------------------------------
// pUBS hoist bit-identity.

/// The scoring arithmetic exactly as written before the hoist (every
/// division inline, no per-graph terms). sched::pubs_score over
/// sched::pubs_graph_terms must reproduce these doubles bit-for-bit.
double reference_pubs_score(const sched::Candidate& cand, double now) {
  constexpr double kEps = 1e-12;
  const double time_left = cand.graph_abs_deadline_s - now;
  if (time_left <= kEps) {
    return -std::numeric_limits<double>::infinity();
  }
  const double s_o = cand.graph_remaining_wc_cycles / time_left;
  if (s_o <= kEps) {
    return std::numeric_limits<double>::infinity();
  }
  const double x_k = cand.estimate_cycles;
  const double t_after = time_left - x_k / s_o;
  const double rem_after = cand.graph_remaining_wc_cycles - cand.wc_cycles;
  if (t_after <= kEps) {
    return std::numeric_limits<double>::max();
  }
  const double s_ok = rem_after / t_after;
  const double denom = s_o * s_o - s_ok * s_ok;
  if (denom <= kEps * s_o * s_o) {
    return 0.5 * std::numeric_limits<double>::max() *
           (x_k / (x_k + cand.wc_cycles + 1.0));
  }
  return x_k / denom;
}

TEST(PubsHoist, ScoreBitIdenticalToUnhoistedReference) {
  // Dense sweep over awkward operand values, including groups of
  // same-graph siblings (shared deadline + remaining wc — one set of
  // per-graph terms) interleaved with graph switches, plus every
  // early-return branch: past deadline, zero remaining work,
  // window-filling estimates and the degenerate denominator guard.
  const auto pubs = sched::make_pubs_priority();
  pubs->reset();
  const std::vector<double> deadlines{-1.0,  1e-13, 0.05, 1.0 / 3.0,
                                      1.7,   23.0,  1e4};
  const std::vector<double> rem_wcs{0.0, 1e-13, 7e5, 1.23456789e8, 4e9};
  const std::vector<double> wcs{1e5, 9.7e6, 3.33e8};
  const std::vector<double> est_fracs{0.2, 0.59999, 1.0};
  const double now = 10.0;
  int checked = 0;
  for (const double dl : deadlines) {
    for (const double rem : rem_wcs) {
      const auto terms = sched::pubs_graph_terms(now, now + dl, rem);
      int graph = 0;
      for (const double wc : wcs) {
        // Each (deadline, rem) pair plays a sibling group: several
        // candidates of one graph scored back to back, both through
        // PubsPriority::score and through one shared set of per-graph
        // terms, as the simulator's ready-list pass does.
        for (const double frac : est_fracs) {
          sched::Candidate cand;
          cand.graph = graph;
          cand.node = 0;
          cand.wc_cycles = wc;
          cand.estimate_cycles = frac * wc;
          cand.graph_abs_deadline_s = now + dl;
          cand.graph_remaining_wc_cycles = rem;
          const double expected = reference_pubs_score(cand, now);
          const double actual = pubs->score(cand, now);
          EXPECT_EQ(expected, actual)
              << "dl=" << dl << " rem=" << rem << " wc=" << wc
              << " frac=" << frac;
          EXPECT_EQ(expected, sched::pubs_score(terms, cand.estimate_cycles,
                                                cand.wc_cycles))
              << "shared terms: dl=" << dl << " rem=" << rem;
          ++checked;
        }
        ++graph;
      }
    }
  }
  // Re-score an earlier (deadline, rem) pair after other graphs were
  // scored in between: no state carries over from one call to the next.
  sched::Candidate cand;
  cand.wc_cycles = 9.7e6;
  cand.estimate_cycles = 0.2 * 9.7e6;
  cand.graph_abs_deadline_s = now + 1.7;
  cand.graph_remaining_wc_cycles = 7e5;
  EXPECT_EQ(reference_pubs_score(cand, now), pubs->score(cand, now));
  EXPECT_GT(checked, 300);
}

}  // namespace
}  // namespace bas
