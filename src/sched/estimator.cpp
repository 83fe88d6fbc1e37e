#include "sched/estimator.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace bas::sched {

namespace {

class WorstCaseEstimator final : public Estimator {
 public:
  std::string name() const override { return "worst-case"; }
  double estimate(int, tg::NodeId, double wc_cycles, double) override {
    return wc_cycles;
  }
};

class MeanFractionEstimator final : public Estimator {
 public:
  explicit MeanFractionEstimator(double fraction) : fraction_(fraction) {
    if (!(fraction > 0.0) || fraction > 1.0) {
      throw std::invalid_argument(
          "MeanFractionEstimator: fraction must be in (0, 1]");
    }
  }
  std::string name() const override { return "mean-fraction"; }
  double estimate(int, tg::NodeId, double wc_cycles, double) override {
    return fraction_ * wc_cycles;
  }

 private:
  double fraction_;
};

class HistoryEstimator final : public Estimator {
 public:
  explicit HistoryEstimator(double alpha) : alpha_(alpha) {
    if (!(alpha > 0.0) || alpha > 1.0) {
      throw std::invalid_argument(
          "HistoryEstimator: alpha must be in (0, 1]");
    }
  }
  std::string name() const override { return "history-ema"; }

  // Storage is dense per (graph, node): estimate() runs once per ready
  // candidate at every scheduling step, so an O(log n) tree walk here
  // was a measurable slice of the simulator's hot path. The dense
  // lookup returns the very same stored doubles a map would.

  double estimate(int graph, tg::NodeId node, double wc_cycles,
                  double) override {
    const auto g = static_cast<std::size_t>(graph);
    if (g < ema_.size()) {
      const auto& per_node = ema_[g];
      if (node < per_node.size() && per_node[node].seen) {
        return per_node[node].value;
      }
    }
    return 0.6 * wc_cycles;  // prior: mean of U(0.2, 1.0)
  }

  void observe(int graph, tg::NodeId node, double actual_cycles) override {
    const auto g = static_cast<std::size_t>(graph);
    if (g >= ema_.size()) {
      ema_.resize(g + 1);
    }
    auto& per_node = ema_[g];
    if (node >= per_node.size()) {
      per_node.resize(node + 1);
    }
    auto& e = per_node[node];
    if (!e.seen) {
      e.seen = true;
      e.value = actual_cycles;
    } else {
      e.value = alpha_ * actual_cycles + (1.0 - alpha_) * e.value;
    }
  }

  void reset() override {
    // Un-see every entry but keep the allocations — a reset estimator
    // behaves like a fresh one while the next run reuses the arrays.
    for (auto& per_node : ema_) {
      for (auto& e : per_node) {
        e.seen = false;
      }
    }
  }

 private:
  struct Ema {
    double value = 0.0;
    bool seen = false;
  };
  double alpha_;
  std::vector<std::vector<Ema>> ema_;
};

class OracleEstimator final : public Estimator {
 public:
  std::string name() const override { return "oracle"; }
  double estimate(int, tg::NodeId, double, double actual_cycles) override {
    return actual_cycles;
  }
};

class NoisyOracleEstimator final : public Estimator {
 public:
  NoisyOracleEstimator(double rel_noise, std::uint64_t seed)
      : rel_noise_(rel_noise), seed_(seed), rng_(seed) {
    if (!(rel_noise >= 0.0 && rel_noise < 1.0)) {
      throw std::invalid_argument(
          "NoisyOracleEstimator: rel_noise must be in [0, 1)");
    }
  }
  std::string name() const override { return "noisy-oracle"; }
  double estimate(int, tg::NodeId, double wc_cycles,
                  double actual_cycles) override {
    const double noisy =
        actual_cycles * (1.0 + rng_.uniform(-rel_noise_, rel_noise_));
    return std::clamp(noisy, 1.0, wc_cycles);
  }
  void reset() override { rng_ = util::Rng(seed_); }

 private:
  double rel_noise_;
  std::uint64_t seed_;
  util::Rng rng_;
};

}  // namespace

std::unique_ptr<Estimator> make_worst_case_estimator() {
  return std::make_unique<WorstCaseEstimator>();
}

std::unique_ptr<Estimator> make_mean_fraction_estimator(double fraction) {
  return std::make_unique<MeanFractionEstimator>(fraction);
}

std::unique_ptr<Estimator> make_history_estimator(double alpha) {
  return std::make_unique<HistoryEstimator>(alpha);
}

std::unique_ptr<Estimator> make_oracle_estimator() {
  return std::make_unique<OracleEstimator>();
}

std::unique_ptr<Estimator> make_noisy_oracle_estimator(double rel_noise,
                                                       std::uint64_t seed) {
  return std::make_unique<NoisyOracleEstimator>(rel_noise, seed);
}

}  // namespace bas::sched
