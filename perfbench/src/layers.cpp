#include "layers.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// Calls f(), timing it when the layer's sampler picks this call.
template <class F>
decltype(auto) sampled(LayerTotals* totals, Layer layer, F&& f) {
  if (!totals->sample(layer)) {
    return f();
  }
  struct Stop {
    LayerTotals* totals;
    Layer layer;
    Clock::time_point t0 = Clock::now();
    ~Stop() { totals->add_sampled(layer, t0); }
  } stop{totals, layer};
  return f();
}

class TimedDvs final : public bas::dvs::DvsPolicy {
 public:
  TimedDvs(std::unique_ptr<bas::dvs::DvsPolicy> inner, LayerTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  std::string name() const override { return inner_->name(); }
  double select(std::span<const bas::dvs::GraphStatus> graphs,
                double now) override {
    return sampled(totals_, Layer::kSelect,
                   [&] { return inner_->select(graphs, now); });
  }
  bool run_constant() const override { return inner_->run_constant(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<bas::dvs::DvsPolicy> inner_;
  LayerTotals* totals_;
};

class TimedPriority final : public bas::sched::PriorityPolicy {
 public:
  TimedPriority(std::unique_ptr<bas::sched::PriorityPolicy> inner,
                LayerTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  std::string name() const override { return inner_->name(); }
  double score(const bas::sched::Candidate& candidate, double now) override {
    return sampled(totals_, Layer::kScore,
                   [&] { return inner_->score(candidate, now); });
  }
  bool stochastic() const override { return inner_->stochastic(); }
  bool uses_estimate() const override { return inner_->uses_estimate(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<bas::sched::PriorityPolicy> inner_;
  LayerTotals* totals_;
};

class TimedEstimator final : public bas::sched::Estimator {
 public:
  TimedEstimator(std::unique_ptr<bas::sched::Estimator> inner,
                 LayerTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  std::string name() const override { return inner_->name(); }
  double estimate(int graph, bas::tg::NodeId node, double wc_cycles,
                  double actual_cycles) override {
    return sampled(totals_, Layer::kEstimate, [&] {
      return inner_->estimate(graph, node, wc_cycles, actual_cycles);
    });
  }
  void observe(int graph, bas::tg::NodeId node,
               double actual_cycles) override {
    sampled(totals_, Layer::kEstimate,
            [&] { inner_->observe(graph, node, actual_cycles); });
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<bas::sched::Estimator> inner_;
  LayerTotals* totals_;
};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTgff:
      return "tgff";
    case Layer::kSimCtor:
      return "sim.ctor";
    case Layer::kSimRun:
      return "sim.run";
    case Layer::kScore:
      return "sched.score";
    case Layer::kEstimate:
      return "sched.estimate";
    case Layer::kSelect:
      return "dvs.select";
    case Layer::kBattery:
      return "battery";
    case Layer::kNearOpt:
      return "analysis.near_opt";
  }
  return "?";
}

double timer_overhead_ns() {
  // Median over batches of the mean empty interval: robust to the odd
  // preemption inside a batch.
  static const double overhead = [] {
    constexpr int kBatches = 31;
    constexpr int kPairs = 2048;
    std::vector<double> means;
    for (int b = 0; b < kBatches; ++b) {
      std::int64_t sum = 0;
      for (int i = 0; i < kPairs; ++i) {
        const auto t0 = Clock::now();
        sum += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count();
      }
      means.push_back(static_cast<double>(sum) / kPairs);
    }
    std::nth_element(means.begin(), means.begin() + kBatches / 2,
                     means.end());
    return means[kBatches / 2];
  }();
  return overhead;
}

double LayerTotals::seconds(Layer layer) const {
  const auto i = static_cast<std::size_t>(layer);
  if (timed[i] == 0) {
    return 0.0;
  }
  const double busy_ns =
      std::max(0.0, static_cast<double>(ns[i]) -
                        timer_overhead_ns() * static_cast<double>(timed[i]));
  return 1e-9 * busy_ns * static_cast<double>(calls[i]) /
         static_cast<double>(timed[i]);
}

void LayerTotals::absorb(const bas::sim::PerfCounters& perf) {
  steps += perf.steps;
  events_popped += perf.events_popped;
  edf_incremental_ops += perf.edf_incremental_ops;
  scratch_grows += perf.scratch_grows;
  candidates_scored += perf.candidates_scored;
  battery_draws += perf.battery_draws;
  battery_interval_advances += perf.battery_interval_advances;
}

void LayerTotals::absorb(const bas::tg::TaskGraphSet& set) {
  for (std::size_t g = 0; g < set.size(); ++g) {
    tgff_nodes += set.graph(g).node_count();
  }
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    ns[i] += o.ns[i];
    calls[i] += o.calls[i];
    timed[i] += o.timed[i];
  }
  tgff_nodes += o.tgff_nodes;
  steps += o.steps;
  events_popped += o.events_popped;
  edf_incremental_ops += o.edf_incremental_ops;
  scratch_grows += o.scratch_grows;
  candidates_scored += o.candidates_scored;
  battery_draws += o.battery_draws;
  battery_interval_advances += o.battery_interval_advances;
  k_exp_calls += o.k_exp_calls;
  return *this;
}

void instrument(bas::core::Scheme& scheme, LayerTotals* totals) {
  scheme.dvs = std::make_unique<TimedDvs>(std::move(scheme.dvs), totals);
  scheme.priority =
      std::make_unique<TimedPriority>(std::move(scheme.priority), totals);
  scheme.estimator =
      std::make_unique<TimedEstimator>(std::move(scheme.estimator), totals);
}

TimedBattery::TimedBattery(std::unique_ptr<bas::bat::Battery> inner,
                           LayerTotals* totals)
    : inner_(std::move(inner)), totals_(totals) {}

std::unique_ptr<bas::bat::Battery> TimedBattery::fresh_clone() const {
  return std::make_unique<TimedBattery>(inner_->fresh_clone(), totals_);
}

double TimedBattery::do_draw(double current_a, double dt_s) {
  const auto t0 = Clock::now();
  const double sustained = inner_->draw(current_a, dt_s);
  totals_->add(Layer::kBattery, t0);
  return sustained;
}

double TimedBattery::do_advance_interval(double current_a, double dt_s) {
  // Battery::advance_interval already divided charge by dt; handing the
  // same current to the inner draw() reproduces the inner cell's own
  // advance_interval exactly when it keeps the default do_draw hook.
  return do_draw(current_a, dt_s);
}

double TimedBattery::do_sigma_after(double current_a, double t_s) const {
  const auto t0 = Clock::now();
  const double sigma = inner_->sigma_after(current_a, t_s);
  totals_->add(Layer::kBattery, t0);
  return sigma;
}

}  // namespace perfbench
