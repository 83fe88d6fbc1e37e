#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dvs/policy.hpp"
#include "util/sort.hpp"

namespace bas::dvs {

namespace {

/// Always-fmax baseline (Table 2's "EDF" row: no DVS at all).
class NoDvs final : public DvsPolicy {
 public:
  explicit NoDvs(double fmax_hz) : fmax_hz_(fmax_hz) {}
  std::string name() const override { return "noDVS"; }
  double select(std::span<const GraphStatus> /*graphs*/,
                double /*now*/) override {
    return fmax_hz_;
  }
  bool run_constant() const override { return true; }

 private:
  double fmax_hz_;
};

/// fref = U * fmax with U the static worst-case utilization. Never
/// benefits from early completions; serves as an ablation baseline.
class StaticDvs final : public DvsPolicy {
 public:
  explicit StaticDvs(double fmax_hz) : fmax_hz_(fmax_hz) {}
  std::string name() const override { return "staticDVS"; }
  double select(std::span<const GraphStatus> graphs,
                double /*now*/) override {
    double cycles_per_second = 0.0;
    for (const auto& g : graphs) {
      cycles_per_second += g.wc_total_cycles / g.period_s;
    }
    return std::min(cycles_per_second, fmax_hz_);
  }
  // Reads only wc_total_cycles and period_s — per-run constants.
  bool run_constant() const override { return true; }

 private:
  double fmax_hz_;
};

/// Cycle-conserving EDF for task graphs — the paper's Algorithm 1.
///
///   upon release(Ti):       WCi = sum(wc_ij);        select_frequency()
///   upon endofnode(Ti,j):   WCi = WCi + ac_ij - wc_ij; select_frequency()
///   select_frequency():     U = sum(WCi / Di); fref = U * fmax
///
/// The WCi bookkeeping lives in the simulator (GraphStatus::cc_wc_cycles);
/// this class is purely the select_frequency() step, so the same status
/// snapshot can also feed laEDF and the feasibility check.
class CcEdf final : public DvsPolicy {
 public:
  explicit CcEdf(double fmax_hz) : fmax_hz_(fmax_hz) {}
  std::string name() const override { return "ccEDF"; }
  double select(std::span<const GraphStatus> graphs,
                double /*now*/) override {
    double cycles_per_second = 0.0;
    for (const auto& g : graphs) {
      cycles_per_second += g.cc_wc_cycles / g.period_s;
    }
    return std::min(cycles_per_second, fmax_hz_);
  }

 private:
  double fmax_hz_;
};

/// Look-ahead EDF (Pillai & Shin) lifted to graph instances: each graph's
/// current instance acts as one EDF task with remaining worst-case work
/// c_left = GraphStatus::remaining_wc_cycles and deadline abs_deadline_s.
///
/// defer() walks instances from the latest deadline to the earliest,
/// pushing as much of each instance's work as possible past the earliest
/// deadline dn (bounded by the spare utilization (1 - U) available in
/// [dn, di]), and accumulates in `s` the cycles that *must* run before
/// dn. The frequency is then s / (dn - now).
///
/// The deferral order, the per-graph static utilizations and their sum
/// change only when a deadline, a static parameter or an active flag
/// does: at releases and instance completions, not at the far more
/// frequent node completions. They are kept between calls, keyed on the
/// exact values they were computed from (bitwise, per span position),
/// and rebuilt with the same expressions when any of those differs. The
/// key holds values only, so a reordered, resized or fresh span can
/// never read a stale order.
class LaEdf final : public DvsPolicy {
 public:
  explicit LaEdf(double fmax_hz) : fmax_hz_(fmax_hz) {}
  std::string name() const override { return "laEDF"; }

  double select(std::span<const GraphStatus> graphs, double now) override {
    if (!order_matches(graphs)) {
      rebuild_order(graphs);
    }
    if (order_.empty()) {
      return 0.0;
    }
    const double dn = order_.back().abs_deadline_s;
    if (dn - now <= kEps) {
      return fmax_hz_;  // at/past the earliest deadline: flat out
    }
    double u = total_util_;
    double must_run_cycles = 0.0;
    for (const Deferral& g : order_) {
      const double remaining = graphs[g.pos].remaining_wc_cycles;
      u -= g.util;
      const double horizon_s = g.abs_deadline_s - dn;
      // Cycles of this instance that cannot be deferred past dn: its
      // remaining work minus what the spare bandwidth (1 - u) * fmax can
      // absorb between dn and its own deadline.
      const double deferrable =
          std::max(0.0, (1.0 - u) * fmax_hz_ * horizon_s);
      const double x = std::max(0.0, remaining - deferrable);
      if (horizon_s > kEps) {
        u += (remaining - x) / (fmax_hz_ * horizon_s);
      }
      must_run_cycles += x;
    }
    return std::min(must_run_cycles / (dn - now), fmax_hz_);
  }

 private:
  static constexpr double kEps = 1e-12;

  /// What the order depends on, for one span position.
  struct Key {
    int graph;
    bool active;
    double abs_deadline_s;
    double period_s;
    double wc_total_cycles;
  };
  /// One active instance in deferral order.
  struct Deferral {
    std::size_t pos;  // index into the span
    int graph;
    double abs_deadline_s;
    double util;  // wc_total / (fmax * period)
  };

  static bool same(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  bool order_matches(std::span<const GraphStatus> graphs) const {
    if (graphs.size() != key_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const GraphStatus& g = graphs[i];
      const Key& k = key_[i];
      if (g.graph != k.graph || (g.remaining_wc_cycles > kEps) != k.active ||
          !same(g.abs_deadline_s, k.abs_deadline_s) ||
          !same(g.period_s, k.period_s) ||
          !same(g.wc_total_cycles, k.wc_total_cycles)) {
        return false;
      }
    }
    return true;
  }

  void rebuild_order(std::span<const GraphStatus> graphs) {
    key_.clear();
    order_.clear();
    total_util_ = 0.0;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const GraphStatus& g = graphs[i];
      const bool active = g.remaining_wc_cycles > kEps;
      key_.push_back({g.graph, active, g.abs_deadline_s, g.period_s,
                      g.wc_total_cycles});
      const double util = g.wc_total_cycles / (fmax_hz_ * g.period_s);
      total_util_ += util;
      if (active) {
        order_.push_back({i, g.graph, g.abs_deadline_s, util});
      }
    }
    // (deadline desc, graph desc) is a strict total order, the
    // contract util::insertion_sort's output-identity argument needs.
    util::insertion_sort(order_, [](const Deferral& a, const Deferral& b) {
      if (a.abs_deadline_s != b.abs_deadline_s) {
        return a.abs_deadline_s > b.abs_deadline_s;  // latest 1st
      }
      return a.graph > b.graph;
    });
  }

  double fmax_hz_;
  std::vector<Key> key_;
  std::vector<Deferral> order_;
  double total_util_ = 0.0;
};

}  // namespace

std::unique_ptr<DvsPolicy> make_no_dvs(double fmax_hz) {
  return std::make_unique<NoDvs>(fmax_hz);
}

std::unique_ptr<DvsPolicy> make_static_dvs(double fmax_hz) {
  return std::make_unique<StaticDvs>(fmax_hz);
}

std::unique_ptr<DvsPolicy> make_cc_edf(double fmax_hz) {
  return std::make_unique<CcEdf>(fmax_hz);
}

std::unique_ptr<DvsPolicy> make_la_edf(double fmax_hz) {
  return std::make_unique<LaEdf>(fmax_hz);
}

}  // namespace bas::dvs
