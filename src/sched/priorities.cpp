#include "sched/priority.hpp"

namespace bas::sched {

namespace {

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
