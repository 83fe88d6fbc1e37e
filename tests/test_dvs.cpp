// Tests for the processor model, frequency realizer, and the four DVS
// frequency-setting policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/scheme.hpp"
#include "dvs/policy.hpp"
#include "dvs/processor.hpp"
#include "dvs/realizer.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sort.hpp"

namespace bas {
namespace {

dvs::GraphStatus status(int graph, double period, double deadline,
                        double wc_total, double cc_wc, double remaining,
                        bool complete = false) {
  dvs::GraphStatus s;
  s.graph = graph;
  s.period_s = period;
  s.abs_deadline_s = deadline;
  s.wc_total_cycles = wc_total;
  s.cc_wc_cycles = cc_wc;
  s.remaining_wc_cycles = remaining;
  s.complete = complete;
  return s;
}

TEST(Processor, PaperDefaultShape) {
  const auto p = dvs::Processor::paper_default();
  ASSERT_EQ(p.points().size(), 3u);
  EXPECT_DOUBLE_EQ(p.fmin_hz(), 0.5e9);
  EXPECT_DOUBLE_EQ(p.fmax_hz(), 1.0e9);
  EXPECT_DOUBLE_EQ(p.points()[1].voltage_v, 4.0);
  EXPECT_FALSE(p.continuous());
}

TEST(Processor, FullSpeedCurrentCalibration) {
  const auto p = dvs::Processor::paper_default();
  // Ceff calibrated for ~1.8 A battery current at (1 GHz, 5 V).
  EXPECT_NEAR(p.battery_current_a(p.points().back()), 1.8, 1e-9);
}

TEST(Processor, CurrentScalesCubicallyWithS) {
  // With V proportional to f, Ibat ~ s^3 (paper §2).
  const auto p = dvs::Processor::continuous_ideal(1e9, 5.0);
  const dvs::OperatingPoint full{1e9, p.voltage_at(1e9)};
  const dvs::OperatingPoint half{0.5e9, p.voltage_at(0.5e9)};
  const double ratio = p.battery_current_a(full) / p.battery_current_a(half);
  EXPECT_NEAR(ratio, 8.0, 1e-9);
}

TEST(Processor, EnergyPerCycleGrowsWithVoltage) {
  const auto p = dvs::Processor::paper_default();
  double prev = 0.0;
  for (const auto& op : p.points()) {
    const double epc = p.energy_per_cycle_j(op);
    EXPECT_GT(epc, prev);
    prev = epc;
  }
}

TEST(Processor, VoltageLookup) {
  const auto p = dvs::Processor::paper_default();
  EXPECT_DOUBLE_EQ(p.voltage_at(0.75e9), 4.0);
  EXPECT_THROW(p.voltage_at(0.6e9), std::invalid_argument);
  const auto c = dvs::Processor::continuous_ideal(1e9, 5.0);
  EXPECT_DOUBLE_EQ(c.voltage_at(0.6e9), 3.0);
}

TEST(Processor, RejectsBadConstruction) {
  EXPECT_THROW(dvs::Processor({}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 5.0}, {1e9, 4.0}}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 5.0}}, 1.2, 1.5, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 0.0}}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  // Voltage decreasing in frequency is physically nonsensical here.
  EXPECT_THROW(
      dvs::Processor({{0.5e9, 5.0}, {1e9, 3.0}}, 1.2, 0.9, 1e-10, 0.0),
      std::invalid_argument);
}

TEST(Realizer, ExactPointPassesThrough) {
  const auto p = dvs::Processor::paper_default();
  const auto plan = dvs::realize(p, 0.75e9);
  EXPECT_DOUBLE_EQ(plan.effective_freq_hz, 0.75e9);
  EXPECT_TRUE(plan.single_level() ||
              std::abs(plan.hi_fraction - 1.0) < 1e-12);
}

TEST(Realizer, MixDeliversRequestedFrequency) {
  const auto p = dvs::Processor::paper_default();
  for (double fref : {0.55e9, 0.6e9, 0.7e9, 0.8e9, 0.9e9, 0.99e9}) {
    const auto plan = dvs::realize(p, fref);
    EXPECT_LE(plan.lo.freq_hz, fref);
    EXPECT_GE(plan.hi.freq_hz, fref);
    const double mixed = plan.hi_fraction * plan.hi.freq_hz +
                         (1.0 - plan.hi_fraction) * plan.lo.freq_hz;
    EXPECT_NEAR(mixed, fref, 1.0) << "fref=" << fref;
    EXPECT_NEAR(plan.effective_freq_hz, fref, 1.0);
  }
}

TEST(Realizer, MixUsesAdjacentPoints) {
  const auto p = dvs::Processor::paper_default();
  const auto plan = dvs::realize(p, 0.6e9);
  EXPECT_DOUBLE_EQ(plan.lo.freq_hz, 0.5e9);
  EXPECT_DOUBLE_EQ(plan.hi.freq_hz, 0.75e9);
}

TEST(Realizer, ClampsOutOfRange) {
  const auto p = dvs::Processor::paper_default();
  const auto low = dvs::realize(p, 0.1e9);
  EXPECT_DOUBLE_EQ(low.effective_freq_hz, 0.5e9);
  const auto high = dvs::realize(p, 2e9);
  EXPECT_DOUBLE_EQ(high.effective_freq_hz, 1e9);
}

TEST(Realizer, ContinuousIsExact) {
  const auto p = dvs::Processor::continuous_ideal(1e9, 5.0);
  const auto plan = dvs::realize(p, 0.6347e9);
  EXPECT_DOUBLE_EQ(plan.effective_freq_hz, 0.6347e9);
  EXPECT_TRUE(plan.single_level());
}

TEST(NoDvs, AlwaysFmax) {
  auto policy = dvs::make_no_dvs(1e9);
  const std::vector<dvs::GraphStatus> empty;
  EXPECT_DOUBLE_EQ(policy->select(empty, 0.0), 1e9);
}

TEST(StaticDvs, UsesStaticUtilization) {
  auto policy = dvs::make_static_dvs(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 3e8, 3e8, 3e8),
      status(1, 2.0, 2.0, 8e8, 8e8, 8e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 0.7e9, 1.0);
}

TEST(CcEdf, TracksWciUpdates) {
  auto policy = dvs::make_cc_edf(1e9);
  // Algorithm 1: U = sum(WCi/Di), fref = U * fmax (WCi in cycles, so
  // fref is directly cycles/s).
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 5e8),
      status(1, 2.0, 2.0, 4e8, 4e8, 4e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 0.7e9, 1.0);
  // A node of graph 0 finished early: WCi drops from 5e8 to 3e8.
  graphs[0].cc_wc_cycles = 3e8;
  EXPECT_NEAR(policy->select(graphs, 0.1), 0.5e9, 1.0);
}

TEST(CcEdf, ClampsAtFmax) {
  auto policy = dvs::make_cc_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 2e9, 2e9, 2e9),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 0.0), 1e9);
}

TEST(LaEdf, SingleGraphRunsJustInTime) {
  auto policy = dvs::make_la_edf(1e9);
  // One graph, 5e8 cycles remaining, deadline in 1 s: everything must
  // run before dn, so fref = 5e8.
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 5e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 5e8, 1.0);
}

TEST(LaEdf, DefersWorkPastEarliestDeadline) {
  auto policy = dvs::make_la_edf(1e9);
  // Graph 0: deadline 1 s, 2e8 cycles. Graph 1: deadline 10 s, 5e8
  // cycles, utilization 0.05. Almost all of graph 1 defers past t=1,
  // so laEDF should pick a frequency well below ccEDF's.
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 2e8, 2e8, 2e8),
      status(1, 10.0, 10.0, 5e8, 5e8, 5e8),
  };
  const double fref = policy->select(graphs, 0.0);
  EXPECT_GE(fref, 2e8 - 1.0);   // must at least finish graph 0
  EXPECT_LT(fref, 0.25e9);      // but nearly nothing of graph 1
}

TEST(LaEdf, NeverBelowImminentDemandAcrossLoads) {
  auto policy = dvs::make_la_edf(1e9);
  // Whatever the mix, fref * (dn - now) must cover the most imminent
  // graph's remaining work.
  for (double rem : {1e8, 3e8, 6e8, 9e8}) {
    std::vector<dvs::GraphStatus> graphs{
        status(0, 1.0, 1.0, rem, rem, rem),
        status(1, 5.0, 5.0, 1e9, 1e9, 1e9),
    };
    const double fref = policy->select(graphs, 0.0);
    EXPECT_GE(fref * 1.0, rem - 1.0) << "rem=" << rem;
    EXPECT_LE(fref, 1e9);
  }
}

TEST(LaEdf, CompleteInstancesContributeNothing) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 4e8, 0.0, /*complete=*/true),
      status(1, 2.0, 2.0, 4e8, 4e8, 4e8),
  };
  const double fref = policy->select(graphs, 0.0);
  // Only graph 1's work remains; 4e8 cycles / 2 s = 2e8 minimum.
  EXPECT_GE(fref, 2e8 - 1.0);
  EXPECT_LT(fref, 4e8);
}

TEST(LaEdf, AllCompleteMeansZero) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 4e8, 0.0, true),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 0.5), 0.0);
}

TEST(LaEdf, PastDeadlineRunsFlatOut) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 1e8),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 1.0), 1e9);
}

// --- laEDF persistent deferral order bit-exactness ----------------------------

/// laEDF's select() as it stood before the deferral order was kept
/// between calls, verbatim: the active list, its sort and the static
/// utilization fold are rebuilt at every call. The persistent order is
/// contracted to reproduce this to the last bit.
class ReferenceLaEdf {
 public:
  explicit ReferenceLaEdf(double fmax_hz) : fmax_hz_(fmax_hz) {}

  double select(std::span<const dvs::GraphStatus> graphs, double now) {
    constexpr double kEps = 1e-12;
    std::vector<const dvs::GraphStatus*>& active = active_;
    active.clear();
    active.reserve(graphs.size());
    if (static_util_.size() < graphs.size()) {
      static_util_.resize(graphs.size());
    }
    double total_util = 0.0;
    for (const auto& g : graphs) {
      const auto slot = static_cast<std::size_t>(g.graph);
      if (slot >= static_util_.size()) {
        static_util_.resize(slot + 1);
      }
      auto& su = static_util_[slot];
      if (su.wc_total_cycles != g.wc_total_cycles ||
          su.period_s != g.period_s) {
        su.wc_total_cycles = g.wc_total_cycles;
        su.period_s = g.period_s;
        su.util = g.wc_total_cycles / (fmax_hz_ * g.period_s);
      }
      total_util += su.util;
      if (g.remaining_wc_cycles > kEps) {
        active.push_back(&g);
      }
    }
    if (active.empty()) {
      return 0.0;
    }
    util::insertion_sort(active, [](const dvs::GraphStatus* a,
                                    const dvs::GraphStatus* b) {
      if (a->abs_deadline_s != b->abs_deadline_s) {
        return a->abs_deadline_s > b->abs_deadline_s;  // latest 1st
      }
      return a->graph > b->graph;
    });
    const double dn = active.back()->abs_deadline_s;
    if (dn - now <= kEps) {
      return fmax_hz_;
    }
    double u = total_util;
    double must_run_cycles = 0.0;
    for (const dvs::GraphStatus* g : active) {
      u -= static_util_[static_cast<std::size_t>(g->graph)].util;
      const double horizon_s = g->abs_deadline_s - dn;
      const double deferrable =
          std::max(0.0, (1.0 - u) * fmax_hz_ * horizon_s);
      const double x = std::max(0.0, g->remaining_wc_cycles - deferrable);
      if (horizon_s > kEps) {
        u += (g->remaining_wc_cycles - x) / (fmax_hz_ * horizon_s);
      }
      must_run_cycles += x;
    }
    return std::min(must_run_cycles / (dn - now), fmax_hz_);
  }

 private:
  struct StaticUtil {
    double wc_total_cycles = -1.0;
    double period_s = 0.0;
    double util = 0.0;
  };

  double fmax_hz_;
  std::vector<const dvs::GraphStatus*> active_;
  std::vector<StaticUtil> static_util_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs laEDF inside a simulation and checks, at every decision point,
/// that it returns the reference's bits for the same status snapshot.
class CheckedLaEdf final : public dvs::DvsPolicy {
 public:
  explicit CheckedLaEdf(double fmax_hz)
      : policy_(dvs::make_la_edf(fmax_hz)), reference_(fmax_hz) {}
  std::string name() const override { return "laEDF"; }
  double select(std::span<const dvs::GraphStatus> graphs,
                double now) override {
    const double got = policy_->select(graphs, now);
    ++calls;
    if (bits(got) != bits(reference_.select(graphs, now))) {
      ++mismatches;
    }
    return got;
  }
  void reset() override { policy_->reset(); }

  long calls = 0;
  long mismatches = 0;

 private:
  std::unique_ptr<dvs::DvsPolicy> policy_;
  ReferenceLaEdf reference_;
};

void expect_recorded_run_matches(const std::string& scenario_name,
                                 int graph_count, double horizon_s) {
  auto spec = scenario::scenario(scenario_name);
  if (graph_count > 0) {
    spec.workload.graph_count = graph_count;
  }
  util::Rng rng(2006);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(7);
  if (horizon_s > 0.0) {
    config.horizon_s = horizon_s;
    config.drain = true;
  }
  auto scheme = core::make_scheme(core::SchemeKind::kBas2, proc.fmax_hz(), 3);
  auto checked = std::make_unique<CheckedLaEdf>(proc.fmax_hz());
  CheckedLaEdf* probe = checked.get();
  scheme.dvs = std::move(checked);
  auto battery = horizon_s > 0.0 ? nullptr : spec.make_battery();
  sim::Simulator sim(set, proc, scheme, config);
  sim.run(battery.get());
  EXPECT_GT(probe->calls, 1000) << scenario_name;
  EXPECT_EQ(probe->mismatches, 0) << scenario_name << " over "
                                  << probe->calls << " calls";
}

TEST(LaEdf, PersistentOrderMatchesPerCallRebuild) {
  // Recorded decision sequences: a Table 2 run to battery death and a
  // Figure 6 energy run with 10 graphs.
  expect_recorded_run_matches("paper-table2", 0, 0.0);
  expect_recorded_run_matches("paper-fig6", 10, 60.0);

  // Fuzzed spans: each step mutates the previous span the way a run
  // never does all at once — deadline and active-flag flips, reordered
  // and resized spans, changed static parameters, reset() — and most
  // steps only move remaining work, so both the kept and the rebuilt
  // order are exercised.
  const double fmax = 1e9;
  auto policy = dvs::make_la_edf(fmax);
  ReferenceLaEdf reference(fmax);
  util::Rng rng(42);
  const double periods[] = {0.5, 1.0, 2.0, 5.0};
  const double remainders[] = {0.0, 1e-13, 1e-12, 2e-12, 1e-4};
  auto fresh = [&](int graph) {
    const double period = periods[rng.index(4)];
    dvs::GraphStatus g;
    g.graph = graph;
    g.period_s = period;
    g.abs_deadline_s = period * static_cast<double>(rng.uniform_int(1, 4));
    g.wc_total_cycles = 1e8 * rng.uniform(0.1, 2.0);
    g.remaining_wc_cycles = g.wc_total_cycles * rng.uniform();
    return g;
  };
  std::vector<dvs::GraphStatus> graphs;
  const auto pick = [&] { return rng.index(graphs.size()); };
  long key_changes = 0;
  for (int step = 0; step < 200000; ++step) {
    switch (graphs.empty() ? 0 : rng.uniform_int(0, 19)) {
      case 0: {  // new span size, distinct graph indices in any order
        std::vector<int> ids(12);
        std::iota(ids.begin(), ids.end(), 0);
        for (std::size_t i = ids.size() - 1; i > 0; --i) {
          std::swap(ids[i], ids[rng.index(i + 1)]);
        }
        ids.resize(rng.index(11));
        graphs.clear();
        for (const int id : ids) {
          graphs.push_back(fresh(id));
        }
        ++key_changes;
        break;
      }
      case 1:  // a release: new deadline, full work
        graphs[pick()].abs_deadline_s += periods[rng.index(4)];
        ++key_changes;
        break;
      case 2:  // active-flag flip, including the threshold's edge
        graphs[pick()].remaining_wc_cycles = remainders[rng.index(5)];
        ++key_changes;
        break;
      case 3:  // reordered span
        std::swap(graphs[pick()], graphs[pick()]);
        ++key_changes;
        break;
      case 4:  // changed static parameters of one graph
        graphs[pick()].wc_total_cycles *= 1.5;
        ++key_changes;
        break;
      case 5:
        policy->reset();
        break;
      default: {  // node progress only
        auto& g = graphs[pick()];
        g.remaining_wc_cycles *= rng.uniform();
        break;
      }
    }
    // Sometimes at or past the earliest deadline.
    const double now = rng.bernoulli(0.05) ? 8.0 : rng.uniform(0.0, 0.4);
    const double got = policy->select(graphs, now);
    const double want = reference.select(graphs, now);
    ASSERT_EQ(bits(got), bits(want)) << "step " << step;
  }
  EXPECT_GT(key_changes, 10000);
}

TEST(PolicyNames, AreStable) {
  EXPECT_EQ(dvs::make_no_dvs(1e9)->name(), "noDVS");
  EXPECT_EQ(dvs::make_static_dvs(1e9)->name(), "staticDVS");
  EXPECT_EQ(dvs::make_cc_edf(1e9)->name(), "ccEDF");
  EXPECT_EQ(dvs::make_la_edf(1e9)->name(), "laEDF");
}

}  // namespace
}  // namespace bas
