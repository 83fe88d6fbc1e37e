#pragma once
// Traced-run layer hooks, built only from the library's public
// interfaces.
//
// A traced job swaps its Scheme's three components for forwarding
// decorators and wraps its battery in a forwarding proxy. Every
// decorator calls straight through to the wrapped object and adds the
// steady_clock time of its calls to the job's LayerTotals; it forwards the
// behaviour queries (run_constant, stochastic, uses_estimate) too, so
// the simulator takes exactly the paths it takes on the bare objects
// and the traced results stay bit-identical to the untraced ones.
//
// Scheme calls are cheap (tens of ns) and number in the hundreds of
// millions per campaign, so timing each one would cost more than the
// call and inflate the layers around it. The scheme decorators time a
// fixed pseudo-random 1 in 16 of their calls and scale by calls/timed;
// the battery proxy and the per-job boundaries (JobProbe) time every
// call. Call counts are exact either way.
//
// The battery proxy routes both do_draw and do_advance_interval to the
// inner cell's public draw(). That is exact for every kernel that keeps
// the default do_advance_interval (= do_draw): KiBaM and the stochastic
// cell, the two this benchmark runs.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "battery/model.hpp"
#include "core/scheme.hpp"
#include "obs/trace_log.hpp"
#include "sim/simulator.hpp"
#include "taskgraph/set.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Timed boundaries. kSimRun is inclusive of the scheme and battery
/// calls made from inside Simulator::run; the rest have no children.
enum class Layer {
  kTgff,      // ScenarioSpec::make_workload
  kSimCtor,   // sim::Simulator construction
  kSimRun,    // sim::Simulator::run
  kScore,     // sched::PriorityPolicy::score
  kEstimate,  // sched::Estimator::estimate + observe
  kSelect,    // dvs::DvsPolicy::select
  kBattery,   // bat::Battery draw / interval advance / depletion probe
  kNearOpt,   // analysis::near_optimal_energy_j
};
inline constexpr std::size_t kLayerCount = 8;

/// Busy time per layer plus the deterministic work counts of one job (or,
/// summed, of one campaign).
struct LayerTotals {
  /// Summed duration of the timed calls, calls made, calls timed.
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kLayerCount> timed{};

  std::uint64_t tgff_nodes = 0;
  // SimResult::perf of every simulated scheme run (not the near-optimal
  // reference, whose result analysis:: does not expose).
  std::uint64_t steps = 0;
  std::uint64_t events_popped = 0;
  std::uint64_t edf_incremental_ops = 0;
  std::uint64_t scratch_grows = 0;
  std::uint64_t candidates_scored = 0;
  std::uint64_t battery_draws = 0;
  std::uint64_t battery_interval_advances = 0;
  /// Inner cell's KernelCounters::exp_calls (the proxy's own are empty).
  std::uint64_t k_exp_calls = 0;

  /// Busy seconds of the layer: the timed calls' durations less the
  /// clock-read cost each one includes (timer_overhead_ns), scaled up by
  /// calls / timed.
  double seconds(Layer layer) const;
  std::uint64_t count(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
  /// Counts one call; true when it is one of the sampled ones.
  bool sample(Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    const std::uint64_t k = calls[i]++;
    if (((k * 0x9e3779b97f4a7c15ULL) >> 60) != 0) {
      return false;
    }
    ++timed[i];
    return true;
  }
  /// Records the duration of a call that sample() picked.
  void add_sampled(Layer layer, Clock::time_point since) {
    ns[static_cast<std::size_t>(layer)] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count();
  }
  /// Records one call timed in full.
  void add(Layer layer, Clock::time_point since) {
    const auto i = static_cast<std::size_t>(layer);
    ++calls[i];
    ++timed[i];
    add_sampled(layer, since);
  }
  void absorb(const bas::sim::PerfCounters& perf);
  void absorb(const bas::tg::TaskGraphSet& set);
  LayerTotals& operator+=(const LayerTotals& o);
};

/// Span / metric-prefix name of a layer ("tgff", "sim.run", ...).
const char* layer_name(Layer layer);

/// What one steady_clock-timed interval measures when it times nothing:
/// the share of the two clock reads that falls inside it. Calibrated
/// once per process.
double timer_overhead_ns();

/// One job's instrumentation handle: `totals` is null in untraced runs,
/// where time() is a plain call. Traced runs add the elapsed time to
/// `totals` and, when `log` is set, record the call as a span on track
/// `tid` of the campaign trace.
struct JobProbe {
  LayerTotals* totals = nullptr;
  bas::obs::TraceLog* log = nullptr;
  int tid = 0;

  template <class F>
  decltype(auto) time(Layer layer, F&& f) {
    if (totals == nullptr) {
      return f();
    }
    struct Stop {
      JobProbe& probe;
      Layer layer;
      Clock::time_point t0 = Clock::now();
      double ts_us = probe.log != nullptr ? probe.log->now_us() : 0.0;
      ~Stop() {
        probe.totals->add(layer, t0);
        if (probe.log != nullptr) {
          probe.log->span(layer_name(layer), bas::obs::kCampaignPid,
                          probe.tid, ts_us, probe.log->now_us() - ts_us);
        }
      }
    } stop{*this, layer};
    return f();
  }
};

/// Swaps the scheme's dvs / priority / estimator for timing decorators
/// that report into `totals`.
void instrument(bas::core::Scheme& scheme, LayerTotals* totals);

/// Forwarding battery proxy that times every call into the inner cell.
class TimedBattery final : public bas::bat::Battery {
 public:
  TimedBattery(std::unique_ptr<bas::bat::Battery> inner, LayerTotals* totals);

  std::string name() const override { return inner_->name(); }
  bool empty() const override { return inner_->empty(); }
  double state_of_charge() const override { return inner_->state_of_charge(); }
  std::unique_ptr<bas::bat::Battery> fresh_clone() const override;

  const bas::bat::Battery& inner() const noexcept { return *inner_; }

 protected:
  double do_draw(double current_a, double dt_s) override;
  double do_advance_interval(double current_a, double dt_s) override;
  double do_sigma_after(double current_a, double t_s) const override;
  void do_reset() override { inner_->reset(); }

 private:
  std::unique_ptr<bas::bat::Battery> inner_;
  LayerTotals* totals_;
};

}  // namespace perfbench
