// The discrete-event simulation loop.
//
// Instead of scanning every arrival stream at the top of each step, the
// loop keeps a priority queue of (time, kind, actor) events — one
// pending release per graph (re-armed from its ArrivalProcess on pop),
// battery-observation points, and the fixed-horizon marker — and keeps
// the at-most-one pending job completion in a running-slice register
// compared against the queue head (see event_queue.hpp for the
// taxonomy and the deterministic ordering contract). Scheduling
// decisions are taken exactly at the paper's decision points: releases
// and node completions.
//
// Executed and idle slices shorter than SimConfig::battery_window_s
// accrue into a charge-equivalent mean-current window that advances the
// battery kernel once per observation point, and constant stretches of
// at least a window (long idle gaps) advance it in one exact
// closed-form call. The tolerance argument — why <= 5 s mean-current
// merging moves lifetimes by < 0.1% on every calibrated kernel — is
// written up in EXPERIMENTS.md ("Event-driven core"). With merging off
// (window 0, a recorded profile or trace) the battery is drawn once per
// executed slice. When a window's flush empties the cell
// mid-interval, the buffered slices attribute energy, charge and busy
// time exactly up to the cutoff; discrete counters (completions,
// deadline misses) may include work from the remainder of that one
// window — the documented slop of deferring battery evaluation.

#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arrival/arrival.hpp"
#include "dvs/policy.hpp"
#include "dvs/processor.hpp"
#include "dvs/realizer.hpp"
#include "obs/trace_log.hpp"
#include "sched/feasibility.hpp"
#include "sched/priority.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/sort.hpp"

namespace bas::sim {

namespace detail {

constexpr double kEps = 1e-9;
constexpr double kCycleEps = 0.5;  // cycles; completion snap threshold
constexpr double kInf = std::numeric_limits<double>::infinity();

struct NodeRt {
  double wc = 0.0;
  double ac = 0.0;
  double remaining_ac = 0.0;
  int pending_preds = 0;
  bool done = false;

  double executed() const { return ac - remaining_ac; }
};

struct InstanceRt {
  std::uint32_t number = 0;
  double release_s = 0.0;
  double deadline_s = 0.0;
  std::vector<NodeRt> nodes;
  /// Ids with pending_preds == 0 and !done, ascending — incrementally
  /// maintained so the ready-list scan touches only ready nodes. The
  /// ascending order reproduces exactly the id-order walk the scan
  /// previously did over all nodes (same candidates, same sequence —
  /// which the Random priority's draw stream depends on).
  std::vector<tg::NodeId> ready;
  std::size_t done_count = 0;
  /// Paper's WCi: Σ ac(done) + Σ wc(pending).
  double cc_wc = 0.0;
  /// Σ over incomplete nodes of (wc − executed cycles).
  double remaining_wc = 0.0;

  bool complete() const { return done_count == nodes.size(); }
};

/// One graph's release stream. Each graph gets a fresh ArrivalProcess
/// bound to its period and a private Rng derived from (config seed,
/// arrival tag, graph index) — a pure function of the coordinates, so
/// arrivals are identical across schemes (common random numbers) and
/// for any thread count under the campaign runner. `next` holds the one
/// precomputed upcoming release; once it reaches the horizon the stream
/// is closed (kInf) and never drawn from again, keeping the draw
/// sequence independent of how the run ends.
struct ArrivalRt {
  std::unique_ptr<arrival::ArrivalProcess> process;
  util::Rng rng{0};
  double prev = -1.0;
  double next = kInf;
};

struct ScoredCandidate {
  sched::Candidate cand;
  double score = 0.0;
};

/// One constant-operating-point stretch of a chosen node's slot.
struct Phase {
  dvs::OperatingPoint op;
  double start, end;
};

/// One slice accrued into the battery merge window, kept so a window
/// that empties the cell mid-interval can attribute energy/charge/busy
/// time exactly up to the cutoff.
struct WinSlice {
  double dur = 0.0;
  double current_a = 0.0;
  double power_w = 0.0;
  bool busy = false;
};

/// Int-indexed view over per-graph state: the simulator addresses
/// graphs with the int ids GraphStatus uses, while the backing storage
/// is a std::vector. The one size_t cast lives here instead of at
/// every subscript.
template <typename T>
class ByGraph {
 public:
  explicit ByGraph(std::vector<T>& v) : v_(&v) {}
  T& operator[](int g) const { return (*v_)[static_cast<std::size_t>(g)]; }

 private:
  std::vector<T>* v_;
};

/// Immutable per-node facts hoisted out of the release loop: the wcet,
/// predecessor count, the draw_actual hash key (a pure function of
/// (seed, graph, node)) and — under kPerNodeMean — the node's
/// persistent mean fraction, which the original formula re-derived
/// from the same key at every release.
struct NodeStatic {
  double wc = 0.0;
  int pred_count = 0;
  std::uint64_t draw_key = 0;
  double mean_frac = 0.0;  // kPerNodeMean only
};

/// Immutable per-graph facts (TaskGraph::total_wcet_cycles() re-sums
/// the node list on every call, so the per-step status snapshot reads
/// the value from here instead).
struct GraphStatic {
  double period_s = 0.0;
  double deadline_s = 0.0;
  double total_wc_cycles = 0.0;
  std::vector<NodeStatic> nodes;
};

double draw_actual(const SimConfig& cfg, const NodeStatic& ns,
                   std::uint32_t instance) {
  const std::uint64_t inst_key =
      util::Rng::hash_combine(ns.draw_key, 0xabcd0000ULL + instance);
  // One draw per key: Rng(inst_key).uniform(lo, hi), written out.
  const double u = util::Rng::first_uniform(inst_key);
  if (cfg.ac_model == AcModel::kIid) {
    const double lo = cfg.ac_lo_frac;
    const double hi = cfg.ac_hi_frac;
    return ns.wc * (lo + (hi - lo) * u);
  }
  // Persistent per-node mean (precomputed: instance-independent) plus
  // per-instance jitter.
  const double lo = -cfg.ac_jitter;
  const double hi = cfg.ac_jitter;
  const double frac = std::clamp(ns.mean_frac + (lo + (hi - lo) * u),
                                 cfg.ac_lo_frac, cfg.ac_hi_frac);
  return ns.wc * frac;
}

/// The scheduling loop's working set, owned by the Simulator and reused
/// across steps and runs. Buffers are cleared (size 0) or overwritten
/// in full each step, never reallocated in steady state — the zero-
/// alloc property SimResult::perf.scratch_grows tracks. Reuse is an
/// exact transformation: every element written this step is written
/// before it is read, so the values never depend on what a previous
/// step (or run) left behind. `edf`, `statuses` and `expiry` are
/// maintained persistently across steps (insert/erase at releases and
/// completions instead of a per-step rebuild).
struct Scratch {
  std::vector<GraphStatic> statics;  // filled once, in the ctor
  std::vector<InstanceRt> inst;
  std::vector<std::uint32_t> released_count;
  std::vector<ArrivalRt> arrivals;
  std::vector<dvs::GraphStatus> statuses;
  std::vector<int> edf;
  std::vector<ScoredCandidate> candidates;
  EventQueue queue;
  std::vector<WinSlice> win_slices;
  /// Graphs released in the current event batch, each once. EDF/status
  /// maintenance replays after the batch so the list keys stay
  /// consistent when several graphs release at one instant.
  std::vector<int> released_batch;
  /// Complete-but-unexpired instances as (abs deadline, graph),
  /// ascending — the watch that zeroes cc_wc_cycles the moment t passes
  /// the deadline, reproducing the rebuilt snapshot's "expired" rule
  /// without an O(graphs) sweep per step.
  std::vector<std::pair<double, int>> expiry;
  /// SimConfig::check_incremental_state: the from-scratch EDF rebuild
  /// the maintained order is compared against.
  std::vector<int> edf_check;
};

/// Resets the reused working set without releasing capacity: instances
/// return to the pre-first-release state (an empty node list counts as
/// complete()), each graph's node buffer keeps its allocation from
/// earlier releases and runs, and the static status fields are written
/// once so the per-step snapshot touches only the dynamic four.
void reset_run_state(Scratch& s, std::size_t n) {
  if (s.inst.size() != n) {
    s.inst.resize(n);
  }
  for (auto& ir : s.inst) {
    ir.number = 0;
    ir.release_s = 0.0;
    ir.deadline_s = 0.0;
    ir.nodes.clear();
    ir.ready.clear();
    ir.done_count = 0;
    ir.cc_wc = 0.0;
    ir.remaining_wc = 0.0;
  }
  s.released_count.assign(n, 0);
  if (s.arrivals.size() != n) {
    s.arrivals.resize(n);
  }
  s.statuses.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    auto& st = s.statuses[g];
    st.graph = static_cast<int>(g);
    st.period_s = s.statics[g].period_s;
    st.wc_total_cycles = s.statics[g].total_wc_cycles;
  }
}

/// Builds every graph's arrival stream and precomputes its first
/// release (streams past the horizon close to kInf and are never drawn
/// from again).
void init_arrivals(Scratch& s, const SimConfig& cfg, int n_graphs) {
  for (int g = 0; g < n_graphs; ++g) {
    auto& ar = s.arrivals[static_cast<std::size_t>(g)];
    ar.process = arrival::make(cfg.arrival,
                               s.statics[static_cast<std::size_t>(g)].period_s);
    ar.rng = util::Rng(util::derive_seed(
        cfg.seed, {0x41525256ULL /*'ARRV'*/, static_cast<std::uint64_t>(g)}));
    ar.prev = -1.0;
    const double first = ar.process->next_release(ar.prev, ar.rng);
    ar.next = first < cfg.horizon_s - kEps ? first : kInf;
  }
}

/// Earliest upcoming release across all graphs. A graph's `next` only
/// changes when it releases, so callers refresh the cached minimum once
/// per release batch instead of rescanning at every decision point.
double min_next_release(const Scratch& s) {
  double best = kInf;
  for (const auto& ar : s.arrivals) {
    best = std::min(best, ar.next);
  }
  return best;
}

/// Releases graph g's next instance at time arrivals[g].next and
/// advances the stream: single-buffered supersede counts a deadline
/// miss, node actuals are drawn from the stateless per-(instance, node)
/// keys, and the ready list starts as the no-predecessor ids in
/// ascending order.
void release_instance(Scratch& s, const SimConfig& cfg, int g,
                      SimResult& res, bool count_perf) {
  auto& ir = s.inst[static_cast<std::size_t>(g)];
  auto& ar = s.arrivals[static_cast<std::size_t>(g)];
  const auto& gs = s.statics[static_cast<std::size_t>(g)];
  if (s.released_count[static_cast<std::size_t>(g)] > 0 && !ir.complete()) {
    ++res.deadline_misses;  // previous instance overran into this release
  }
  ir.number = s.released_count[static_cast<std::size_t>(g)];
  ir.release_s = ar.next;
  ir.deadline_s = ir.release_s + gs.deadline_s;
  ar.prev = ar.next;
  if (ar.next != kInf) {
    const double upcoming = ar.process->next_release(ar.prev, ar.rng);
    ar.next = upcoming < cfg.horizon_s - kEps ? upcoming : kInf;
  }
  const std::size_t n_nodes = gs.nodes.size();
  if (ir.nodes.size() != n_nodes) {
    if (count_perf && ir.nodes.capacity() < n_nodes) {
      ++res.perf.scratch_grows;
    }
    ir.nodes.resize(n_nodes);
  }
  ir.done_count = 0;
  ir.ready.clear();
  for (tg::NodeId id = 0; id < n_nodes; ++id) {
    const auto& ns = gs.nodes[id];
    auto& nr = ir.nodes[id];
    nr.wc = ns.wc;
    nr.ac = draw_actual(cfg, ns, ir.number);
    nr.remaining_ac = nr.ac;
    nr.pending_preds = ns.pred_count;
    nr.done = false;
    if (ns.pred_count == 0) {
      ir.ready.push_back(id);
    }
  }
  // Σ wc over the release loop is the same node-order fold
  // total_wcet_cycles() performs, precomputed in the constructor.
  ir.cc_wc = gs.total_wc_cycles;
  ir.remaining_wc = gs.total_wc_cycles;
  ++s.released_count[static_cast<std::size_t>(g)];
  ++res.instances_released;
  if (cfg.trace_log != nullptr) {
    // Sim-time release marker, one per instance on the graph's track.
    // The fixed name is what the trace-based arrival-rate diagnostic
    // counts (tests/test_arrival.cpp).
    char args[64];
    std::snprintf(args, sizeof(args), "{\"graph\": %d, \"instance\": %llu}",
                  g, static_cast<unsigned long long>(ir.number));
    cfg.trace_log->instant("release", obs::kSimPid, g, ir.release_s * 1e6,
                           args);
  }
}

}  // namespace detail

using namespace detail;

Simulator::Simulator(const tg::TaskGraphSet& set, const dvs::Processor& proc,
                     core::Scheme& scheme, SimConfig config)
    : set_(set),
      proc_(proc),
      scheme_(scheme),
      config_(config),
      scratch_(std::make_unique<detail::Scratch>()) {
  set_.validate();
  if (!(config_.horizon_s > 0.0)) {
    throw std::invalid_argument("Simulator: horizon must be positive");
  }
  if (!(config_.ac_lo_frac > 0.0) || config_.ac_hi_frac > 1.0 ||
      config_.ac_hi_frac < config_.ac_lo_frac) {
    throw std::invalid_argument("Simulator: bad actual-computation range");
  }
  if (!scheme_.dvs || !scheme_.priority || !scheme_.estimator) {
    throw std::invalid_argument("Simulator: scheme has null components");
  }
  // Fail on a bad arrival model/params at construction, not mid-run
  // inside a worker thread.
  arrival::validate(config_.arrival);

  // Gather the immutable per-graph/per-node facts once. The values are
  // computed with exactly the expressions the scheduling loop used to
  // evaluate in place (same folds, same hash chains), so reading them
  // from here is bit-identical to re-deriving them.
  auto& statics = scratch_->statics;
  statics.resize(set_.size());
  for (std::size_t gi = 0; gi < set_.size(); ++gi) {
    const auto& graph = set_.graph(gi);
    auto& gs = statics[gi];
    gs.period_s = graph.period();
    gs.deadline_s = graph.deadline();
    gs.total_wc_cycles = graph.total_wcet_cycles();
    gs.nodes.resize(graph.node_count());
    for (tg::NodeId id = 0; id < graph.node_count(); ++id) {
      auto& ns = gs.nodes[id];
      ns.wc = graph.node(id).wcet_cycles;
      ns.pred_count = static_cast<int>(graph.predecessors(id).size());
      std::uint64_t key =
          util::Rng::hash_combine(config_.seed, 0x7a5c0ffeULL);
      key = util::Rng::hash_combine(key, static_cast<std::uint64_t>(gi));
      key = util::Rng::hash_combine(key, id);
      ns.draw_key = key;
      if (config_.ac_model == AcModel::kPerNodeMean) {
        util::Rng mean_rng(key);
        ns.mean_frac =
            mean_rng.uniform(config_.ac_lo_frac, config_.ac_hi_frac);
      }
    }
  }
}

Simulator::~Simulator() = default;

SimResult Simulator::run(bat::Battery* battery) {
  scheme_.reset();
  if (battery != nullptr) {
    battery->reset();
  }

  SimResult res;
  res.battery_attached = battery != nullptr;
  const bool count_perf = config_.record_perf_counters;
  const int n_graphs = static_cast<int>(set_.size());
  const std::size_t n = set_.size();

  // Optional trace sink: pure instrumentation that appends to the log,
  // never touches simulation state, so results are bitwise identical
  // with it on or off.
  obs::TraceLog* const tlog = config_.trace_log;

  Scratch& s = *scratch_;
  reset_run_state(s, n);
  if (config_.record_trace) {
    res.trace.reserve(1024);
  }
  if (config_.record_profile) {
    res.profile.reserve(1024);
  }

  const ByGraph inst(s.inst);
  const ByGraph statuses(s.statuses);
  auto graph_at = [&](int g) -> decltype(auto) {
    return set_.graph(static_cast<std::size_t>(g));
  };
  auto scratch_caps = [&s] {
    std::size_t caps = s.edf.capacity() + s.candidates.capacity() +
                       s.statuses.capacity() + s.queue.capacity() +
                       s.win_slices.capacity() + s.released_batch.capacity() +
                       s.expiry.capacity() + s.edf_check.capacity();
    for (const auto& ir : s.inst) {
      caps += ir.ready.capacity();
    }
    return caps;
  };
  const std::size_t caps_at_start = count_perf ? scratch_caps() : 0;

  // Audit runs (profile/trace) flush the battery per slice and stay
  // draw-for-draw identical to window-0 runs; merging applies to the
  // plain lifetime/feasibility runs campaigns are made of.
  const bool merging = battery != nullptr && config_.battery_window_s > 0.0 &&
                       !config_.record_profile && !config_.record_trace;

  double t = 0.0;
  bool battery_dead = false;
  double death_t = kInf;
  double last_busy_current = kInf;

  init_arrivals(s, config_, n_graphs);
  double next_release_s = min_next_release(s);

  EventQueue& q = s.queue;
  q.clear();
  for (int g = 0; g < n_graphs; ++g) {
    const double first = s.arrivals[static_cast<std::size_t>(g)].next;
    if (first != kInf) {
      q.push({first, EventKind::kRelease, g});
    }
  }
  if (!config_.drain) {
    q.push({config_.horizon_s, EventKind::kHorizon, -1});
  }

  // ---- battery merge window -------------------------------------------
  bool win_open = false;
  bool obs_scheduled = false;
  double win_start = 0.0;
  double win_span = 0.0;
  double win_charge = 0.0;

  // Advances the kernel over the open window in one charge-equivalent
  // mean-current call, then attributes the buffered slices to the
  // result exactly up to the sustained duration (the whole window
  // unless the cell hit cutoff inside it).
  auto flush_window = [&] {
    if (!win_open) {
      return;
    }
    win_open = false;
    const double span = win_span;
    if (span <= 0.0) {
      s.win_slices.clear();
      return;
    }
    const double sustained = battery->advance_interval(win_charge, span);
    if (count_perf) {
      ++res.perf.battery_draws;
      ++res.perf.battery_interval_advances;
    }
    if (battery->empty()) {
      battery_dead = true;
      res.battery_died = true;
      death_t = std::min(death_t, win_start + sustained);
    }
    double remaining = sustained;
    for (const auto& sl : s.win_slices) {
      const double take = std::min(sl.dur, remaining);
      if (take <= 0.0) {
        break;
      }
      res.charge_c += sl.current_a * take;
      res.energy_j += sl.power_w * take;
      if (sl.busy) {
        res.busy_s += take;
      }
      remaining -= take;
    }
    s.win_slices.clear();
  };

  // Accounts `current_a` at `power_w` for `dur` starting at `t0`.
  // Returns the sustained duration: `dur` unless the battery died — in
  // merge mode a slice rejected because an earlier flush emptied the
  // cell returns 0 and death_t already holds the cutoff time.
  auto accrue = [&](double t0, double dur, double current_a, double power_w,
                    bool busy) -> double {
    double sustained = dur;
    if (battery != nullptr && !battery_dead) {
      if (merging) {
        if (win_open && win_span + dur > config_.battery_window_s + kEps) {
          flush_window();
        }
        if (battery_dead) {
          return 0.0;
        }
        if (dur >= config_.battery_window_s) {
          // Constant stretch of at least a window (a long idle gap):
          // one exact closed-form advance, no merging error at all.
          flush_window();
          if (battery_dead) {
            return 0.0;
          }
          sustained = battery->draw(current_a, dur);
          if (count_perf) {
            ++res.perf.battery_draws;
            ++res.perf.battery_interval_advances;
          }
          if (battery->empty()) {
            battery_dead = true;
            res.battery_died = true;
            death_t = std::min(death_t, t0 + sustained);
          }
          res.charge_c += current_a * sustained;
          res.energy_j += power_w * sustained;
          if (busy) {
            res.busy_s += sustained;
          }
          return sustained;
        }
        if (!win_open) {
          win_open = true;
          win_start = t0;
          win_span = 0.0;
          win_charge = 0.0;
          s.win_slices.clear();
          if (!obs_scheduled) {
            q.push({t0 + config_.battery_window_s, EventKind::kBatteryObs,
                    -1});
            obs_scheduled = true;
          }
        }
        win_span += dur;
        win_charge += current_a * dur;
        s.win_slices.push_back({dur, current_a, power_w, busy});
        if (count_perf) {
          ++res.perf.ticks_skipped;
        }
        return dur;  // applied to res at the flush
      }
      // Exact per-slice path (audit runs and window 0): one kernel draw
      // per executed slice or idle gap.
      sustained = battery->draw(current_a, dur);
      if (count_perf) {
        ++res.perf.battery_draws;
      }
      if (battery->empty()) {
        battery_dead = true;
        res.battery_died = true;
        death_t = std::min(death_t, t0 + sustained);
      }
    }
    if (config_.record_profile && sustained > 0.0) {
      res.profile.add(sustained, current_a);
    }
    res.charge_c += current_a * sustained;
    res.energy_j += power_w * sustained;
    if (busy) {
      res.busy_s += sustained;
    }
    return sustained;
  };

  const bool stochastic_prio = scheme_.priority->stochastic();
  const bool need_estimate = scheme_.priority->uses_estimate();
  // Estimator history is observable only through estimate() calls; when
  // the priority never consults the estimator (Random and the fixed
  // orderings), feeding its history is dead work the loop skips.
  const bool feed_estimator = need_estimate;

  // A run-constant DVS policy (noDVS, staticDVS) returns the same fref
  // at every decision point; select it once and realize the plan here
  // instead of per step. For the rest, realize() is memoized on fref:
  // policies saturate (fmax under load, repeated clamps), and the
  // mapping fref -> plan is pure.
  const bool constant_dvs = scheme_.dvs->run_constant();
  double cached_fref = -1.0;
  dvs::FreqPlan cached_plan{};
  if (constant_dvs) {
    cached_fref = std::clamp(scheme_.dvs->select(s.statuses, 0.0), 0.0,
                             proc_.fmax_hz());
    cached_plan = dvs::realize(proc_, cached_fref);
  }
  // The status snapshot feeds exactly two readers: DvsPolicy::select and
  // the feasibility guard. With a run-constant policy (select hoisted)
  // and most-imminent scope (every candidate sits at EDF position 0, so
  // the guard never fires), neither reader exists and the snapshot is
  // dead work.
  const bool need_statuses =
      !constant_dvs || scheme_.scope == core::ReadyScope::kAllReleased;
  // The debug cross-check compares the snapshot too, so it forces the
  // write-through maintenance on even when no reader exists.
  const bool maintain_statuses =
      need_statuses || config_.check_incremental_state;
  // Considered and dropped: a per-(graph, node) cache of estimate()
  // results keyed on (instance, observe-epoch). Exact — the history
  // estimator is a pure function of its observed history — but the
  // interleaved A/B harness measured it ~5-8% SLOWER on the dense
  // BAS-2 cell: the estimator's EMA read is already one array load, so
  // the two-level cache indirection plus key compare cost more than
  // the devirtualized call it elided (EXPERIMENTS.md, "Scheduler-loop
  // perf").

  // ---- persistent incremental state ---------------------------------
  // s.edf, the status snapshot and the expiry watch are maintained
  // across steps from here on: releases and the running node's
  // bookkeeping are the only writers, so a per-step rebuild would be
  // pure recomputation of unchanged state.
  s.edf.clear();
  s.released_batch.clear();
  s.expiry.clear();
  if (maintain_statuses) {
    // Pre-first-release snapshot at t = 0: every instance is an empty
    // node list (complete()) whose deadline 0 counts as expired — the
    // bytes a from-scratch rebuild produces on the first step.
    for (int g = 0; g < n_graphs; ++g) {
      auto& st = statuses[g];
      st.abs_deadline_s = 0.0;
      st.complete = true;
      st.cc_wc_cycles = 0.0;
      st.remaining_wc_cycles = 0.0;
    }
  }
  const auto edf_less = [&](int a, int b) {
    const double da = inst[a].deadline_s;
    const double db = inst[b].deadline_s;
    return da != db ? da < db : a < b;
  };

  // SimConfig::check_incremental_state: rebuild both maintained
  // structures from scratch — the EDF order via insertion_sort — and
  // require them element-for-element (and for the snapshot,
  // byte-for-byte) identical.
  auto check_state = [&](double now) {
    s.edf_check.clear();
    for (int g = 0; g < n_graphs; ++g) {
      if (!inst[g].complete()) {
        s.edf_check.push_back(g);
      }
    }
    util::insertion_sort(s.edf_check, edf_less);
    if (s.edf_check != s.edf) {
      throw std::logic_error(
          "Simulator: maintained EDF order diverged from rebuild");
    }
    for (int g = 0; g < n_graphs; ++g) {
      const auto& ir = inst[g];
      const auto& st = statuses[g];
      const bool complete = ir.complete();
      const bool expired = complete && now >= ir.deadline_s - kEps;
      const double cc = expired ? 0.0 : ir.cc_wc;
      if (st.abs_deadline_s != ir.deadline_s || st.complete != complete ||
          st.cc_wc_cycles != cc ||
          st.remaining_wc_cycles != ir.remaining_wc) {
        throw std::logic_error(
            "Simulator: write-through status snapshot diverged from "
            "rebuild");
      }
    }
  };

  while (true) {
    if (count_perf) {
      ++res.perf.steps;
    }

    // ---- 1. dispatch every event due now -----------------------------
    if (!q.empty() && q.top().time <= t + kEps) {
      bool released = false;
      do {
        const Event e = q.pop();
        if (count_perf) {
          ++res.perf.events_popped;
        }
        switch (e.kind) {
          case EventKind::kRelease: {
            // Collect each graph once per batch; the EDF/status
            // maintenance replays after the whole batch so the list is
            // only ever searched with consistent keys (a graph may
            // release twice at one instant under bursty arrivals).
            bool seen = false;
            for (const int other : s.released_batch) {
              if (other == e.actor) {
                seen = true;
                break;
              }
            }
            if (!seen) {
              s.released_batch.push_back(e.actor);
            }
            release_instance(s, config_, e.actor, res, count_perf);
            const double upcoming =
                s.arrivals[static_cast<std::size_t>(e.actor)].next;
            if (upcoming != kInf) {
              q.push({upcoming, EventKind::kRelease, e.actor});
            }
            released = true;
            break;
          }
          case EventKind::kBatteryObs:
            obs_scheduled = false;
            flush_window();
            break;
          case EventKind::kHorizon:
          case EventKind::kCompletion:
            // Horizon is handled by the time check below; completions
            // live in the running-slice register, never in the queue.
            break;
        }
      } while (!q.empty() && q.top().time <= t + kEps);
      if (released) {
        next_release_s = min_next_release(s);
      }
    }

    if (!config_.drain && t >= config_.horizon_s - kEps) {
      break;
    }
    if (battery_dead) {
      break;
    }

    // ---- 2. incremental maintenance: releases + expiry ---------------
    // The maintained EDF order and snapshot can only have moved at the
    // releases the batch above dispatched; time passing additionally
    // carries complete instances across their deadline, which the
    // expiry watch applies. Everything else is unchanged state a
    // per-step rebuild would recompute for nothing.
    if (!s.released_batch.empty()) {
      // Pass 1: drop entries keyed under superseded deadlines, so the
      // re-inserts below only ever search a list whose keys are
      // current (inst[g].deadline_s already moved for the whole batch).
      for (const int rg : s.released_batch) {
        const auto it = std::find(s.edf.begin(), s.edf.end(), rg);
        if (it != s.edf.end()) {
          s.edf.erase(it);
          if (count_perf) {
            ++res.perf.edf_incremental_ops;
          }
        }
        if (maintain_statuses && !s.expiry.empty()) {
          const auto we =
              std::find_if(s.expiry.begin(), s.expiry.end(),
                           [rg](const std::pair<double, int>& e) {
                             return e.second == rg;
                           });
          if (we != s.expiry.end()) {
            s.expiry.erase(we);
          }
        }
      }
      // Pass 2: insert the fresh instances at their (deadline, id)
      // slots. Same comparator total order as the rebuild's sort, so
      // the maintained list is the unique sequence insertion_sort
      // produces — element for element.
      for (const int rg : s.released_batch) {
        const auto& ir = inst[rg];
        if (!ir.complete()) {
          util::insert_sorted(s.edf, rg, edf_less);
          if (count_perf) {
            ++res.perf.edf_incremental_ops;
          }
        }
        if (maintain_statuses) {
          auto& st = statuses[rg];
          st.abs_deadline_s = ir.deadline_s;
          st.complete = ir.complete();
          const bool expired = st.complete && t >= ir.deadline_s - kEps;
          st.cc_wc_cycles = expired ? 0.0 : ir.cc_wc;
          st.remaining_wc_cycles = ir.remaining_wc;
          if (st.complete && !expired) {
            // Zero-node graph: released complete with a live deadline.
            util::insert_sorted(s.expiry, {ir.deadline_s, rg},
                                std::less<std::pair<double, int>>{});
          }
        }
      }
      s.released_batch.clear();
    }
    if (maintain_statuses) {
      // Expiry watch: a complete instance's cc_wc_cycles drops to 0
      // the moment t passes its deadline — the rebuild's `expired`
      // rule with the same epsilon, applied once per crossing instead
      // of re-derived per step per graph.
      while (!s.expiry.empty() && t >= s.expiry.front().first - kEps) {
        statuses[s.expiry.front().second].cc_wc_cycles = 0.0;
        s.expiry.erase(s.expiry.begin());
      }
    }
    if (config_.check_incremental_state) {
      check_state(t);
    }

    if (s.edf.empty()) {
      // Jump the whole idle gap to the next release (or the horizon).
      double t_next = next_release_s;
      if (t_next == kInf) {
        if (config_.drain || t >= config_.horizon_s - kEps) {
          break;  // drained: nothing in flight, nothing to release
        }
        t_next = config_.horizon_s;
      }
      const double dt = t_next - t;
      if (dt > 0.0) {
        if (count_perf) {
          res.perf.idle_time_jumped_s += dt;
        }
        accrue(t, dt, proc_.idle_current_a(), 0.0, false);
        if (battery_dead) {
          break;
        }
      }
      t = t_next;
      continue;
    }

    // ---- 4. frequency selection (the scheme's DVS half) --------------
    if (!constant_dvs) {
      const double fref = std::clamp(scheme_.dvs->select(s.statuses, t), 0.0,
                                     proc_.fmax_hz());
      if (fref != cached_fref) {
        cached_fref = fref;
        cached_plan = dvs::realize(proc_, fref);
      }
    }
    const auto& plan = cached_plan;

    // ---- 5. ready list + priority order (the ordering half) ----------
    // Candidates are enumerated in EDF order, ascending node id within
    // a graph; a stochastic priority's draw stream follows that order.
    s.candidates.clear();
    const std::size_t scan_depth =
        scheme_.scope == core::ReadyScope::kAllReleased ? s.edf.size() : 1;
    for (std::size_t pos = 0; pos < scan_depth; ++pos) {
      const int g = s.edf[pos];
      const auto& ir = inst[g];
      for (const tg::NodeId id : ir.ready) {
        const auto& nr = ir.nodes[id];
        auto& sc = s.candidates.emplace_back();
        auto& c = sc.cand;
        c.graph = g;
        c.node = id;
        c.wc_cycles = std::max(nr.wc - nr.executed(), kCycleEps);
        c.actual_cycles = nr.remaining_ac;
        c.estimate_cycles = c.wc_cycles;  // overwritten when needed
        c.graph_abs_deadline_s = ir.deadline_s;
        c.graph_remaining_wc_cycles = ir.remaining_wc;
        c.edf_position = static_cast<int>(pos);
        sc.score = 0.0;
      }
    }
    const std::size_t n_cand = s.candidates.size();
    if (count_perf) {
      res.perf.candidates_scored += n_cand;
    }
    // A lone candidate needs no order — unless the priority consumes
    // randomness, in which case it is scored anyway so its draw stream
    // advances once per candidate at every decision point.
    const bool do_score = n_cand > 1 || stochastic_prio;
    if (do_score) {
      for (auto& sc : s.candidates) {
        if (need_estimate) {
          const auto& nr = inst[sc.cand.graph].nodes[sc.cand.node];
          const double full_estimate = scheme_.estimator->estimate(
              sc.cand.graph, sc.cand.node, nr.wc, nr.ac);
          sc.cand.estimate_cycles =
              std::max(full_estimate - nr.executed(), kCycleEps);
        }
        sc.score = scheme_.priority->score(sc.cand, t);
      }
    }

    // Selection: the unique (score, graph, node) minimum, falling back
    // to the fully sorted walk only when that minimum fails the
    // feasibility guard (rare) — the same chosen candidate a
    // sort-then-walk over every candidate produces.
    auto cand_less = [](const ScoredCandidate& a, const ScoredCandidate& b) {
      if (a.score != b.score) {
        return a.score < b.score;
      }
      if (a.cand.graph != b.cand.graph) {
        return a.cand.graph < b.cand.graph;
      }
      return a.cand.node < b.cand.node;
    };
    auto feasible = [&](const ScoredCandidate& sc) {
      return sc.cand.edf_position == 0 ||
             sched::feasibility_check(s.statuses, s.edf, sc.cand.edf_position,
                                      sc.cand.wc_cycles,
                                      plan.effective_freq_hz, t);
    };
    const ScoredCandidate* chosen = nullptr;
    if (n_cand == 1) {
      chosen = &s.candidates[0];  // pos 0 by construction: unguarded
    } else {
      const ScoredCandidate* best = &s.candidates[0];
      for (std::size_t i = 1; i < n_cand; ++i) {
        if (cand_less(s.candidates[i], *best)) {
          best = &s.candidates[i];
        }
      }
      if (feasible(*best)) {
        chosen = best;
      } else {
        util::insertion_sort(s.candidates, cand_less);
        for (const auto& sc : s.candidates) {
          if (feasible(sc)) {
            chosen = &sc;
            break;
          }
        }
      }
    }
    // The most-imminent graph always offers an unguarded candidate.
    if (chosen == nullptr) {
      throw std::logic_error("Simulator: no feasible candidate (bug)");
    }

    // ---- 6. run the chosen node until completion or next release -----
    const int g = chosen->cand.graph;
    auto& ir = inst[g];
    auto& nr = ir.nodes[chosen->cand.node];

    const double full_duration = nr.remaining_ac / plan.effective_freq_hz;
    const double t_release = next_release_s;
    const double run_until = std::min(t + full_duration, t_release);

    // The two-point mix is laid out over the node's intended execution
    // window, higher point first (Guideline 1 within the slot).
    const double hi_end = t + plan.hi_fraction * full_duration;
    Phase phase_buf[2];
    std::size_t n_phases = 0;
    if (run_until <= hi_end + kEps || plan.single_level()) {
      phase_buf[n_phases++] = {plan.hi_fraction > 0.0 ? plan.hi : plan.lo, t,
                               run_until};
    } else {
      phase_buf[n_phases++] = {plan.hi, t, hi_end};
      phase_buf[n_phases++] = {plan.lo, hi_end, run_until};
    }

    double executed_cycles = 0.0;
    double t_now = t;
    for (std::size_t p = 0; p < n_phases; ++p) {
      const auto& ph = phase_buf[p];
      const double dt = ph.end - ph.start;
      if (dt <= 0.0) {
        continue;
      }
      const double current = proc_.battery_current_a(ph.op);
      const double power = proc_.core_power_w(ph.op);
      const double sustained = accrue(t_now, dt, current, power, true);
      executed_cycles += ph.op.freq_hz * sustained;
      if (config_.record_trace && sustained > 0.0) {
        res.trace.push_back(ExecSlice{g, ir.number, chosen->cand.node,
                                      t_now, t_now + sustained,
                                      ph.op.freq_hz, current});
      }
      if (tlog != nullptr && sustained > 0.0) {
        char name[48];
        std::snprintf(name, sizeof(name), "g%d/n%u i%llu", g,
                      static_cast<unsigned>(chosen->cand.node),
                      static_cast<unsigned long long>(ir.number));
        tlog->span(name, obs::kSimPid, g, t_now * 1e6, sustained * 1e6);
      }
      if (current > last_busy_current + 1e-12) {
        ++res.frequency_increases;
      }
      last_busy_current = current;
      t_now += sustained;
      if (battery_dead) {
        break;
      }
    }
    t = t_now;

    // ---- 7. bookkeeping ----------------------------------------------
    executed_cycles = std::min(executed_cycles, nr.remaining_ac);
    nr.remaining_ac -= executed_cycles;
    ir.remaining_wc = std::max(0.0, ir.remaining_wc - executed_cycles);

    if (battery_dead) {
      break;
    }

    bool node_completed = false;
    bool instance_completed = false;
    if (nr.remaining_ac <= kCycleEps) {
      // The running-slice register dispatches its completion here —
      // the kCompletion arm of the event taxonomy.
      if (count_perf) {
        ++res.perf.events_popped;
      }
      node_completed = true;
      nr.remaining_ac = 0.0;
      nr.done = true;
      ++ir.done_count;
      ++res.nodes_executed;
      // Completion adjustments (paper Algorithm 1): the instance's WCi
      // swaps this node's wc for its actual; remaining worst case drops
      // by the wc that was never going to run.
      ir.cc_wc += nr.ac - nr.wc;
      ir.remaining_wc = std::max(0.0, ir.remaining_wc - (nr.wc - nr.ac));
      auto& rd = ir.ready;
      rd.erase(std::lower_bound(rd.begin(), rd.end(), chosen->cand.node));
      const auto& graph = graph_at(g);
      for (tg::NodeId succ : graph.successors(chosen->cand.node)) {
        if (--ir.nodes[succ].pending_preds == 0) {
          rd.insert(std::lower_bound(rd.begin(), rd.end(), succ), succ);
        }
      }
      if (feed_estimator) {
        scheme_.estimator->observe(g, chosen->cand.node, nr.ac);
      }
      if (ir.complete()) {
        instance_completed = true;
        ++res.instances_completed;
        if (t > ir.deadline_s + 1e-6) {
          ++res.deadline_misses;
        }
        if (tlog != nullptr) {
          char args[64];
          std::snprintf(args, sizeof(args),
                        "{\"graph\": %d, \"instance\": %llu}", g,
                        static_cast<unsigned long long>(ir.number));
          tlog->instant("complete", obs::kSimPid, g, t * 1e6, args);
        }
      }
    } else if (run_until >= t_release - kEps) {
      ++res.preemptions;
    }

    // ---- 8. incremental maintenance: only the running graph moved ----
    if (maintain_statuses) {
      auto& st = statuses[g];
      st.remaining_wc_cycles = ir.remaining_wc;
      if (instance_completed) {
        st.complete = true;
        if (t >= ir.deadline_s - kEps) {
          st.cc_wc_cycles = 0.0;  // completed at/after its deadline
        } else {
          st.cc_wc_cycles = ir.cc_wc;
          util::insert_sorted(s.expiry, {ir.deadline_s, g},
                              std::less<std::pair<double, int>>{});
        }
      } else if (node_completed) {
        st.cc_wc_cycles = ir.cc_wc;
      }
    }
    if (instance_completed) {
      // edf_position indexes the maintained list, which nothing has
      // touched since the candidate build read it.
      s.edf.erase(s.edf.begin() + chosen->cand.edf_position);
      if (count_perf) {
        ++res.perf.edf_incremental_ops;
      }
    }
  }

  // Settle the battery: flush whatever the last window holds, then pin
  // the end time to the cutoff if the cell emptied.
  flush_window();
  if (res.battery_died) {
    t = death_t;
  }

  if (count_perf && scratch_caps() != caps_at_start) {
    ++res.perf.scratch_grows;
  }

  res.end_time_s = t;
  if (battery != nullptr) {
    res.battery_lifetime_s = battery->time_alive_s();
    res.battery_delivered_mah = battery->charge_delivered_mah();
    if (count_perf) {
      res.perf.kernel = battery->kernel_counters();
    }
  }
  return res;
}

SimResult simulate_scheme(const tg::TaskGraphSet& set,
                          const dvs::Processor& proc, core::SchemeKind kind,
                          const SimConfig& config, bat::Battery* battery) {
  core::Scheme scheme = core::make_scheme(kind, proc.fmax_hz(), config.seed);
  Simulator sim(set, proc, scheme, config);
  return sim.run(battery);
}

}  // namespace bas::sim
