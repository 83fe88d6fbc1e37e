#include <cmath>
#include <limits>

#include "sched/priority.hpp"

namespace bas::sched {

namespace {

class PubsPriority final : public PriorityPolicy {
 public:
  std::string name() const override { return "pUBS"; }
  bool uses_estimate() const override { return true; }

  double score(const Candidate& cand, double now) override {
    constexpr double kEps = 1e-12;
    // Per-(graph, decision point) hoist: sibling candidates of one
    // graph share (now, deadline, remaining wc), so time_left, the s_o
    // division and s_o^2 are computed once and the identical doubles
    // reused — exact operand-keyed memoization, no reassociation, so
    // every score is bit-identical to the unhoisted arithmetic
    // (pinned by tests/test_incremental_state.cpp). A coincidental key
    // match across graphs reuses equally identical values.
    if (now != memo_now_ || cand.graph_abs_deadline_s != memo_deadline_ ||
        cand.graph_remaining_wc_cycles != memo_rem_wc_) {
      memo_now_ = now;
      memo_deadline_ = cand.graph_abs_deadline_s;
      memo_rem_wc_ = cand.graph_remaining_wc_cycles;
      memo_time_left_ = memo_deadline_ - now;
      // Guarded: the unhoisted path never divides when time_left is
      // at/below epsilon (early return) — the 0.0 is never read.
      memo_s_o_ = memo_time_left_ > kEps ? memo_rem_wc_ / memo_time_left_
                                         : 0.0;
      memo_s_o_sq_ = memo_s_o_ * memo_s_o_;
    }
    const double time_left = memo_time_left_;
    if (time_left <= kEps) {
      return -std::numeric_limits<double>::infinity();  // run immediately
    }
    // Speed after the current partial order: all remaining worst case
    // by the deadline.
    const double s_o = memo_s_o_;
    if (s_o <= kEps) {
      return std::numeric_limits<double>::infinity();
    }
    // Run τk next at s_o for its estimated Xk cycles...
    const double x_k = cand.estimate_cycles;
    const double t_after = time_left - x_k / s_o;
    const double rem_after = cand.graph_remaining_wc_cycles - cand.wc_cycles;
    if (t_after <= kEps) {
      // Estimate fills (or overfills) the window; no recovery possible.
      return std::numeric_limits<double>::max();
    }
    // ...then the speed needed for what is left.
    const double s_ok = rem_after / t_after;
    const double denom = memo_s_o_sq_ - s_ok * s_ok;
    if (denom <= kEps * s_o * s_o) {
      // Xk == wc_k (or worse estimate): zero expected recovery. Order
      // these after every task with genuine recovery, larger Xk last.
      return 0.5 * std::numeric_limits<double>::max() *
             (x_k / (x_k + cand.wc_cycles + 1.0));
    }
    return x_k / denom;
  }

  void reset() override {
    // NaN keys can never match, so the first score() recomputes. (A
    // stale hit would still be exact — the cached values are pure
    // functions of the key — but a fresh run starts clean.)
    memo_now_ = std::numeric_limits<double>::quiet_NaN();
    memo_deadline_ = std::numeric_limits<double>::quiet_NaN();
    memo_rem_wc_ = std::numeric_limits<double>::quiet_NaN();
  }

 private:
  double memo_now_ = std::numeric_limits<double>::quiet_NaN();
  double memo_deadline_ = std::numeric_limits<double>::quiet_NaN();
  double memo_rem_wc_ = std::numeric_limits<double>::quiet_NaN();
  double memo_time_left_ = 0.0;
  double memo_s_o_ = 0.0;
  double memo_s_o_sq_ = 0.0;
};

class LtfPriority final : public PriorityPolicy {
 public:
  std::string name() const override { return "LTF"; }
  double score(const Candidate& cand, double) override {
    return -cand.wc_cycles;
  }
};

class StfPriority final : public PriorityPolicy {
 public:
  std::string name() const override { return "STF"; }
  double score(const Candidate& cand, double) override {
    return cand.wc_cycles;
  }
};

class RandomPriority final : public PriorityPolicy {
 public:
  explicit RandomPriority(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::string name() const override { return "Random"; }
  double score(const Candidate&, double) override { return rng_.uniform(); }
  bool stochastic() const override { return true; }
  void reset() override { rng_ = util::Rng(seed_); }

 private:
  std::uint64_t seed_;
  util::Rng rng_;
};

class FifoPriority final : public PriorityPolicy {
 public:
  std::string name() const override { return "FIFO"; }
  double score(const Candidate& cand, double) override {
    return static_cast<double>(cand.graph) * 1.0e6 +
           static_cast<double>(cand.node);
  }
};

}  // namespace

std::unique_ptr<PriorityPolicy> make_pubs_priority() {
  return std::make_unique<PubsPriority>();
}

std::unique_ptr<PriorityPolicy> make_ltf_priority() {
  return std::make_unique<LtfPriority>();
}

std::unique_ptr<PriorityPolicy> make_stf_priority() {
  return std::make_unique<StfPriority>();
}

std::unique_ptr<PriorityPolicy> make_random_priority(std::uint64_t seed) {
  return std::make_unique<RandomPriority>(seed);
}

std::unique_ptr<PriorityPolicy> make_fifo_priority() {
  return std::make_unique<FifoPriority>();
}

}  // namespace bas::sched
