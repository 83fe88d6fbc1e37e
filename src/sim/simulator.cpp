// The discrete-event simulation loop.
//
// Instead of scanning every arrival stream at the top of each step, the
// loop keeps a priority queue of (time, kind, actor) events — one
// pending release per graph (re-armed from its ArrivalProcess on pop)
// and battery-observation points — and keeps the at-most-one pending
// job completion in a running-slice register compared against the
// queue head (see event_queue.hpp for the taxonomy and the
// deterministic ordering contract). Scheduling decisions are taken
// exactly at the paper's decision points: releases and node
// completions.
//
// One run is a `Run` object (below) whose member functions are the
// loop's phases, in step order: dispatch due events, apply the release
// batch, idle jump, select the plan (laEDF's half), build/score and
// choose a candidate (the ordering half), execute the slice, complete
// the node. Simulator::run resets state, runs the loop and settles the
// battery.
//
// Executed and idle slices shorter than SimConfig::battery_window_s
// accrue into a charge-equivalent mean-current window that advances the
// battery kernel once per observation point, and constant stretches of
// at least a window (long idle gaps) advance it in one exact
// closed-form call. The tolerance argument — why <= 5 s mean-current
// merging moves lifetimes by < 0.1% on every calibrated kernel — is
// written up in EXPERIMENTS.md ("Event-driven core"). With merging off
// (window 0 or a recorded trace) the battery is drawn once per
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

}  // namespace detail

using namespace detail;

void validate(const SimConfig& config) {
  if (!(config.horizon_s > 0.0)) {
    throw std::invalid_argument("Simulator: horizon must be positive");
  }
  if (!(config.ac_lo_frac > 0.0) || config.ac_hi_frac > 1.0 ||
      config.ac_hi_frac < config.ac_lo_frac) {
    throw std::invalid_argument("Simulator: bad actual-computation range");
  }
  arrival::validate(config.arrival);
}

Simulator::Simulator(const tg::TaskGraphSet& set, const dvs::Processor& proc,
                     core::Scheme& scheme, SimConfig config)
    : set_(set),
      proc_(proc),
      scheme_(scheme),
      config_(config),
      scratch_(std::make_unique<detail::Scratch>()) {
  set_.validate();
  sim::validate(config_);
  if (!scheme_.dvs || !scheme_.priority || !scheme_.estimator) {
    throw std::invalid_argument("Simulator: scheme has null components");
  }

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

namespace {

/// The selection order over scored candidates: score, then graph, then
/// node — a strict total order, so the minimum is unique.
bool cand_less(const ScoredCandidate& a, const ScoredCandidate& b) {
  if (a.score != b.score) {
    return a.score < b.score;
  }
  if (a.cand.graph != b.cand.graph) {
    return a.cand.graph < b.cand.graph;
  }
  return a.cand.node < b.cand.node;
}

/// EDF order over graph ids: absolute deadline, then id. A strict total
/// order, so the maintained list is the unique sequence insertion_sort
/// produces.
struct EdfLess {
  ByGraph<InstanceRt> inst;
  bool operator()(int a, int b) const {
    const double da = inst[a].deadline_s;
    const double db = inst[b].deadline_s;
    return da != db ? da < db : a < b;
  }
};

/// One Simulator::run: the loop's state and its phases. loop() calls
/// each phase from one place per step, and the struct lives in this
/// file's unnamed namespace, so the compiler inlines the phases back
/// into the loop.
struct Run {
  const tg::TaskGraphSet& set;
  const dvs::Processor& proc;
  core::Scheme& scheme;
  const SimConfig& cfg;
  Scratch& s;
  bat::Battery* const battery;
  // Optional trace sink: pure instrumentation that appends to the log,
  // never touches simulation state, so results are bitwise identical
  // with it on or off.
  obs::TraceLog* const tlog = cfg.trace_log;
  const ByGraph<InstanceRt> inst{s.inst};
  const ByGraph<dvs::GraphStatus> statuses{s.statuses};
  const EdfLess edf_less{inst};
  const int n_graphs = static_cast<int>(set.size());

  // Traced (audit) runs flush the battery per slice and stay
  // draw-for-draw identical to window-0 runs; merging applies to the
  // plain lifetime/feasibility runs campaigns are made of.
  const bool merging = battery != nullptr && cfg.battery_window_s > 0.0 &&
                       !cfg.record_trace;
  const bool stochastic_prio = scheme.priority->stochastic();
  // pUBS is recognised by type, once per run, and scored inline (its
  // score() is a pure function of the candidate). A decorator around it
  // is a different type and stays on the virtual call.
  const sched::PubsPriority* const pubs =
      dynamic_cast<const sched::PubsPriority*>(scheme.priority.get());
  // Estimator history is observable only through estimate() calls; when
  // the priority never consults the estimator (Random and the fixed
  // orderings), feeding its history is dead work the loop skips.
  const bool need_estimate = scheme.priority->uses_estimate();
  // A run-constant DVS policy (noDVS, staticDVS) returns the same fref
  // at every decision point; select it once and realize the plan in the
  // constructor instead of per step. For the rest, realize() is
  // memoized on fref: policies saturate (fmax under load, repeated
  // clamps), and the mapping fref -> plan is pure.
  const bool constant_dvs = scheme.dvs->run_constant();
  // The status snapshot feeds exactly two readers: DvsPolicy::select and
  // the feasibility guard. With a run-constant policy (select hoisted)
  // and most-imminent scope (every candidate sits at EDF position 0, so
  // the guard never fires), neither reader exists and the snapshot is
  // dead work. The debug cross-check compares the snapshot too, so it
  // forces the write-through maintenance on.
  const bool maintain_statuses =
      !constant_dvs || scheme.scope == core::ReadyScope::kAllReleased ||
      cfg.check_incremental_state;
  const std::size_t caps_at_start = scratch_caps();

  SimResult res;
  // Always counted; settle() copies them into res.perf only when
  // SimConfig::record_perf_counters asks for them.
  PerfCounters perf;
  double t = 0.0;
  double death_t = kInf;
  double last_busy_current = kInf;
  double next_release_s = kInf;
  double cached_fref = -1.0;
  dvs::FreqPlan cached_plan{};

  // ---- battery merge window -----------------------------------------
  bool win_open = false;
  bool obs_scheduled = false;
  double win_start = 0.0;
  double win_span = 0.0;
  double win_charge = 0.0;

  Run(const tg::TaskGraphSet& set, const dvs::Processor& proc,
      core::Scheme& scheme, const SimConfig& cfg, Scratch& s,
      bat::Battery* battery)
      : set(set), proc(proc), scheme(scheme), cfg(cfg), s(s),
        battery(battery) {
    res.battery_attached = battery != nullptr;
    if (cfg.record_trace) {
      res.trace.reserve(1024);
    }

    init_arrivals(s, cfg, n_graphs);
    next_release_s = min_next_release(s);
    s.queue.clear();
    for (int g = 0; g < n_graphs; ++g) {
      const double first = s.arrivals[static_cast<std::size_t>(g)].next;
      if (first != kInf) {
        s.queue.push({first, EventKind::kRelease, g});
      }
    }

    if (constant_dvs) {
      cached_fref = std::clamp(scheme.dvs->select(s.statuses, 0.0), 0.0,
                               proc.fmax_hz());
      cached_plan = dvs::realize(proc, cached_fref);
    }
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
  }

  /// One iteration per decision point (a release batch or a node
  /// completion) or idle jump.
  void loop() {
    while (true) {
      ++perf.steps;
      dispatch_due_events();
      if ((!cfg.drain && t >= cfg.horizon_s - kEps) || res.battery_died) {
        return;
      }
      apply_release_batch();
      if (cfg.check_incremental_state) {
        check_state();
      }
      if (s.edf.empty()) {
        if (!idle_jump()) {
          return;
        }
        continue;
      }
      const dvs::FreqPlan& plan = select_plan();
      build_candidates();
      const ScoredCandidate& chosen = choose(plan);
      if (!execute(chosen.cand, plan)) {
        return;
      }
    }
  }

  /// Settles the battery: flushes whatever the last window holds, then
  /// pins the end time to the cutoff if the cell emptied.
  SimResult settle() {
    flush_window();
    if (res.battery_died) {
      t = death_t;
    }
    if (scratch_caps() != caps_at_start) {
      ++perf.scratch_grows;
    }
    res.end_time_s = t;
    if (battery != nullptr) {
      res.battery_lifetime_s = battery->time_alive_s();
      res.battery_delivered_mah = battery->charge_delivered_mah();
    }
    if (cfg.record_perf_counters) {
      res.perf = perf;
      if (battery != nullptr) {
        res.perf.kernel = battery->kernel_counters();
      }
    }
    return std::move(res);
  }

  /// Phase 1: pops every event due now. Releases are applied to their
  /// instance at once and collected, each graph once, into the batch
  /// apply_release_batch() replays; a battery observation flushes the
  /// merge window.
  void dispatch_due_events() {
    EventQueue& q = s.queue;
    bool released = false;
    while (!q.empty() && q.top().time <= t + kEps) {
      const Event e = q.pop();
      ++perf.events_popped;
      switch (e.kind) {
        case EventKind::kRelease: {
          // The EDF/status maintenance replays after the whole batch so
          // the list is only ever searched with consistent keys (a graph
          // may release twice at one instant under bursty arrivals).
          auto& batch = s.released_batch;
          if (std::find(batch.begin(), batch.end(), e.actor) == batch.end()) {
            batch.push_back(e.actor);
          }
          release(e.actor);
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
        case EventKind::kCompletion:  // only ever in the running-slice register
          break;
      }
    }
    if (released) {
      next_release_s = min_next_release(s);
    }
  }

  /// Releases graph g's next instance at time arrivals[g].next and
  /// advances the stream: single-buffered supersede counts a deadline
  /// miss, node actuals are drawn from the stateless per-(instance, node)
  /// keys, and the ready list starts as the no-predecessor ids in
  /// ascending order.
  void release(int g) {
    auto& ir = inst[g];
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
      if (ir.nodes.capacity() < n_nodes) {
        ++perf.scratch_grows;
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
    trace_instant("release", g, ir.number, ir.release_s);
  }

  /// Phase 2: incremental maintenance. The maintained EDF order and
  /// snapshot can only have moved at the releases the batch dispatched;
  /// time passing additionally carries complete instances across their
  /// deadline, which the expiry watch applies. Everything else is
  /// unchanged state a per-step rebuild would recompute for nothing.
  void apply_release_batch() {
    if (!s.released_batch.empty()) {
      // Pass 1: drop entries keyed under superseded deadlines, so the
      // re-inserts below only ever search a list whose keys are current
      // (inst[g].deadline_s already moved for the whole batch).
      for (const int rg : s.released_batch) {
        const auto it = std::find(s.edf.begin(), s.edf.end(), rg);
        if (it != s.edf.end()) {
          s.edf.erase(it);
          ++perf.edf_incremental_ops;
        }
        if (maintain_statuses && !s.expiry.empty()) {
          const auto we = std::find_if(s.expiry.begin(), s.expiry.end(),
                                       [rg](const std::pair<double, int>& e) {
                                         return e.second == rg;
                                       });
          if (we != s.expiry.end()) {
            s.expiry.erase(we);
          }
        }
      }
      // Pass 2: insert the fresh instances at their (deadline, id) slots.
      // Same comparator total order as the rebuild's sort, so the
      // maintained list is the unique sequence insertion_sort produces —
      // element for element.
      for (const int rg : s.released_batch) {
        const auto& ir = inst[rg];
        if (!ir.complete()) {
          util::insert_sorted(s.edf, rg, edf_less);
          ++perf.edf_incremental_ops;
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
      // Expiry watch: a complete instance's cc_wc_cycles drops to 0 the
      // moment t passes its deadline — the rebuild's `expired` rule with
      // the same epsilon, applied once per crossing instead of re-derived
      // per step per graph.
      while (!s.expiry.empty() && t >= s.expiry.front().first - kEps) {
        statuses[s.expiry.front().second].cc_wc_cycles = 0.0;
        s.expiry.erase(s.expiry.begin());
      }
    }
  }

  /// SimConfig::check_incremental_state: rebuilds both maintained
  /// structures from scratch — the EDF order via insertion_sort — and
  /// requires them element-for-element (and for the snapshot,
  /// byte-for-byte) identical.
  void check_state() const {
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
      const bool expired = complete && t >= ir.deadline_s - kEps;
      const double cc = expired ? 0.0 : ir.cc_wc;
      if (st.abs_deadline_s != ir.deadline_s || st.complete != complete ||
          st.cc_wc_cycles != cc || st.remaining_wc_cycles != ir.remaining_wc) {
        throw std::logic_error(
            "Simulator: write-through status snapshot diverged from rebuild");
      }
    }
  }

  /// Phase 3, nothing ready: jumps the whole idle gap to the next release
  /// (or the horizon). Returns false when the run is over — drained, or
  /// the cell emptied inside the gap.
  bool idle_jump() {
    double t_next = next_release_s;
    if (t_next == kInf) {
      if (cfg.drain || t >= cfg.horizon_s - kEps) {
        return false;  // drained: nothing in flight, nothing to release
      }
      t_next = cfg.horizon_s;
    }
    const double dt = t_next - t;
    if (dt > 0.0) {
      perf.idle_time_jumped_s += dt;
      accrue(t, dt, proc.idle_current_a(), 0.0, false);
      if (res.battery_died) {
        return false;
      }
    }
    t = t_next;
    return true;
  }

  /// Phase 4: frequency selection, the scheme's DVS half.
  const dvs::FreqPlan& select_plan() {
    if (!constant_dvs) {
      const double fref = std::clamp(scheme.dvs->select(s.statuses, t), 0.0,
                                     proc.fmax_hz());
      if (fref != cached_fref) {
        cached_fref = fref;
        cached_plan = dvs::realize(proc, fref);
      }
    }
    return cached_plan;
  }

  /// Phase 5a: the ready list in the scheme's scope, scored by its
  /// priority in the pass that builds it. Candidates are enumerated in
  /// EDF order, ascending node id within a graph; the estimator and a
  /// stochastic priority see their calls in that order, estimate then
  /// score per candidate. A lone candidate needs no order, so it is
  /// neither estimated nor scored — unless the priority consumes
  /// randomness, in which case it is scored anyway so its draw stream
  /// advances once per candidate at every decision point. A stochastic
  /// estimator therefore advances only at points with two or more
  /// candidates. pUBS is scored inline with its per-graph terms computed
  /// once per graph; any other priority through its virtual score().
  void build_candidates() {
    s.candidates.clear();
    const std::size_t scan_depth =
        scheme.scope == core::ReadyScope::kAllReleased ? s.edf.size() : 1;
    std::size_t n_ready = 0;
    for (std::size_t pos = 0; pos < scan_depth && n_ready < 2; ++pos) {
      n_ready += inst[s.edf[pos]].ready.size();
    }
    const bool order = n_ready >= 2 || stochastic_prio;
    for (std::size_t pos = 0; pos < scan_depth; ++pos) {
      const int g = s.edf[pos];
      const auto& ir = inst[g];
      const sched::PubsGraphTerms terms =
          pubs != nullptr && order
              ? sched::pubs_graph_terms(t, ir.deadline_s, ir.remaining_wc)
              : sched::PubsGraphTerms{};
      for (const tg::NodeId id : ir.ready) {
        const auto& nr = ir.nodes[id];
        auto& sc = s.candidates.emplace_back();
        auto& c = sc.cand;
        c.graph = g;
        c.node = id;
        c.wc_cycles = std::max(nr.wc - nr.executed(), kCycleEps);
        c.estimate_cycles = c.wc_cycles;  // overwritten when needed
        c.graph_abs_deadline_s = ir.deadline_s;
        c.graph_remaining_wc_cycles = ir.remaining_wc;
        c.edf_position = static_cast<int>(pos);
        sc.score = 0.0;
        if (!order) {
          continue;
        }
        if (need_estimate) {
          const double full_estimate =
              scheme.estimator->estimate(g, id, nr.wc, nr.ac);
          c.estimate_cycles =
              std::max(full_estimate - nr.executed(), kCycleEps);
        }
        sc.score = pubs != nullptr
                       ? sched::pubs_score(terms, c.estimate_cycles,
                                           c.wc_cycles)
                       : scheme.priority->score(c, t);
      }
    }
    perf.candidates_scored += s.candidates.size();
  }

  /// Phase 5b: the unique (score, graph, node) minimum, falling back to
  /// the fully sorted walk only when that minimum fails the feasibility
  /// guard (rare) — the same chosen candidate a sort-then-walk over every
  /// candidate produces. The EDF-first graph always offers a candidate,
  /// and position 0 is never guarded.
  const ScoredCandidate& choose(const dvs::FreqPlan& plan) {
    const auto feasible = [&](const ScoredCandidate& sc) {
      return sc.cand.edf_position == 0 ||
             sched::feasibility_check(s.statuses, s.edf, sc.cand.edf_position,
                                      sc.cand.wc_cycles,
                                      plan.effective_freq_hz, t);
    };
    const ScoredCandidate* best = &s.candidates[0];
    for (std::size_t i = 1; i < s.candidates.size(); ++i) {
      if (cand_less(s.candidates[i], *best)) {
        best = &s.candidates[i];
      }
    }
    if (feasible(*best)) {
      return *best;
    }
    util::insertion_sort(s.candidates, cand_less);
    for (const auto& sc : s.candidates) {
      if (feasible(sc)) {
        return sc;
      }
    }
    throw std::logic_error("Simulator: no feasible candidate (bug)");
  }

  /// Phase 6: runs the chosen node until it completes or the next release
  /// preempts it, then books the executed cycles. Returns false when the
  /// cell emptied inside the slice.
  bool execute(const sched::Candidate& c, const dvs::FreqPlan& plan) {
    const int g = c.graph;
    auto& ir = inst[g];
    auto& nr = ir.nodes[c.node];

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
    for (std::size_t p = 0; p < n_phases; ++p) {
      const auto& ph = phase_buf[p];
      const double dt = ph.end - ph.start;
      if (dt <= 0.0) {
        continue;
      }
      const double current = proc.battery_current_a(ph.op);
      const double power = proc.core_power_w(ph.op);
      const double sustained = accrue(t, dt, current, power, true);
      executed_cycles += ph.op.freq_hz * sustained;
      if (cfg.record_trace && sustained > 0.0) {
        res.trace.push_back(ExecSlice{g, ir.number, c.node, t, t + sustained,
                                      ph.op.freq_hz, current, ir.release_s,
                                      ir.deadline_s});
      }
      if (tlog != nullptr && sustained > 0.0) {
        char name[48];
        std::snprintf(name, sizeof(name), "g%d/n%u i%llu", g,
                      static_cast<unsigned>(c.node),
                      static_cast<unsigned long long>(ir.number));
        tlog->span(name, obs::kSimPid, g, t * 1e6, sustained * 1e6);
      }
      if (current > last_busy_current + 1e-12) {
        ++res.frequency_increases;
      }
      last_busy_current = current;
      t += sustained;
      if (res.battery_died) {
        break;
      }
    }

    executed_cycles = std::min(executed_cycles, nr.remaining_ac);
    nr.remaining_ac -= executed_cycles;
    ir.remaining_wc = std::max(0.0, ir.remaining_wc - executed_cycles);
    if (res.battery_died) {
      return false;
    }
    if (nr.remaining_ac <= kCycleEps) {
      complete_node(c);
      return true;
    }
    if (run_until >= t_release - kEps) {
      ++res.preemptions;
    }
    if (maintain_statuses) {
      statuses[g].remaining_wc_cycles = ir.remaining_wc;
    }
    return true;
  }

  /// Phase 7: the running-slice register dispatches its completion — the
  /// kCompletion arm of the event taxonomy. Only the running graph's
  /// maintained state moves.
  void complete_node(const sched::Candidate& c) {
    const int g = c.graph;
    auto& ir = inst[g];
    auto& nr = ir.nodes[c.node];
    ++perf.events_popped;
    nr.remaining_ac = 0.0;
    ++ir.done_count;
    ++res.nodes_executed;
    // Completion adjustments (paper Algorithm 1): the instance's WCi swaps
    // this node's wc for its actual; remaining worst case drops by the wc
    // that was never going to run.
    ir.cc_wc += nr.ac - nr.wc;
    ir.remaining_wc = std::max(0.0, ir.remaining_wc - (nr.wc - nr.ac));
    auto& rd = ir.ready;
    rd.erase(std::lower_bound(rd.begin(), rd.end(), c.node));
    for (tg::NodeId succ :
         set.graph(static_cast<std::size_t>(g)).successors(c.node)) {
      if (--ir.nodes[succ].pending_preds == 0) {
        rd.insert(std::lower_bound(rd.begin(), rd.end(), succ), succ);
      }
    }
    if (need_estimate) {
      scheme.estimator->observe(g, c.node, nr.ac);
    }

    const bool instance_done = ir.complete();
    if (maintain_statuses) {
      auto& st = statuses[g];
      st.remaining_wc_cycles = ir.remaining_wc;
      if (!instance_done) {
        st.cc_wc_cycles = ir.cc_wc;
      } else if (t >= ir.deadline_s - kEps) {
        st.complete = true;
        st.cc_wc_cycles = 0.0;  // completed at/after its deadline
      } else {
        st.complete = true;
        st.cc_wc_cycles = ir.cc_wc;
        util::insert_sorted(s.expiry, {ir.deadline_s, g},
                            std::less<std::pair<double, int>>{});
      }
    }
    if (instance_done) {
      ++res.instances_completed;
      if (t > ir.deadline_s + 1e-6) {
        ++res.deadline_misses;
      }
      trace_instant("complete", g, ir.number, t);
      // edf_position indexes the maintained list, which nothing has
      // touched since the candidate build read it.
      s.edf.erase(s.edf.begin() + c.edf_position);
      ++perf.edf_incremental_ops;
    }
  }

  /// Accounts `current_a` at `power_w` for `dur` starting at `t0`.
  /// Returns the sustained duration: `dur` unless the battery died — in
  /// merge mode a slice rejected because an earlier flush emptied the
  /// cell returns 0 and death_t already holds the cutoff time.
  double accrue(double t0, double dur, double current_a, double power_w,
                bool busy) {
    double sustained = dur;
    if (battery != nullptr && !res.battery_died) {
      if (merging) {
        const double window = cfg.battery_window_s;
        if (win_open && (win_span + dur > window + kEps || dur >= window)) {
          flush_window();
        }
        if (res.battery_died) {
          return 0.0;
        }
        if (dur < window) {
          if (!win_open) {
            win_open = true;
            win_start = t0;
            win_span = 0.0;
            win_charge = 0.0;
            s.win_slices.clear();
            if (!obs_scheduled) {
              s.queue.push({t0 + window, EventKind::kBatteryObs, -1});
              obs_scheduled = true;
            }
          }
          win_span += dur;
          win_charge += current_a * dur;
          s.win_slices.push_back({dur, current_a, power_w, busy});
          ++perf.ticks_skipped;
          return dur;  // attributed at the flush
        }
        // Constant stretch of at least a window (a long idle gap): one
        // exact closed-form advance, no merging error at all.
        ++perf.battery_interval_advances;
      }
      // Otherwise the exact per-slice path (audit runs and window 0): one
      // kernel draw per executed slice or idle gap.
      sustained = battery->draw(current_a, dur);
      ++perf.battery_draws;
      note_emptied(t0, sustained);
    }
    attribute(sustained, current_a, power_w, busy);
    return sustained;
  }

  /// Advances the kernel over the open window in one charge-equivalent
  /// mean-current call, then attributes the buffered slices exactly up to
  /// the sustained duration (the whole window unless the cell hit cutoff
  /// inside it).
  void flush_window() {
    if (!win_open) {
      return;
    }
    win_open = false;
    if (win_span > 0.0) {
      const double sustained = battery->advance_interval(win_charge, win_span);
      ++perf.battery_draws;
      ++perf.battery_interval_advances;
      note_emptied(win_start, sustained);
      double remaining = sustained;
      for (const auto& sl : s.win_slices) {
        const double take = std::min(sl.dur, remaining);
        if (take <= 0.0) {
          break;
        }
        attribute(take, sl.current_a, sl.power_w, sl.busy);
        remaining -= take;
      }
    }
    s.win_slices.clear();
  }

  /// Records the cell emptying, if the kernel call that sustained
  /// `sustained` seconds from `t0` emptied it.
  void note_emptied(double t0, double sustained) {
    if (battery->empty()) {
      res.battery_died = true;
      death_t = std::min(death_t, t0 + sustained);
    }
  }

  /// Charges `dur` seconds at `current_a` / `power_w` to the result.
  void attribute(double dur, double current_a, double power_w, bool busy) {
    res.charge_c += current_a * dur;
    res.energy_j += power_w * dur;
    if (busy) {
      res.busy_s += dur;
    }
  }

  /// A release or completion marker on graph g's sim-time track. The
  /// fixed names are what the trace-based arrival-rate diagnostic counts
  /// (tests/test_arrival.cpp).
  void trace_instant(const char* name, int g, std::uint32_t number,
                     double at_s) const {
    if (tlog == nullptr) {
      return;
    }
    char args[64];
    std::snprintf(args, sizeof(args), "{\"graph\": %d, \"instance\": %llu}", g,
                  static_cast<unsigned long long>(number));
    tlog->instant(name, obs::kSimPid, g, at_s * 1e6, args);
  }

  std::size_t scratch_caps() const {
    std::size_t caps = s.edf.capacity() + s.candidates.capacity() +
                       s.statuses.capacity() + s.queue.capacity() +
                       s.win_slices.capacity() + s.released_batch.capacity() +
                       s.expiry.capacity() + s.edf_check.capacity();
    for (const auto& ir : s.inst) {
      caps += ir.ready.capacity();
    }
    return caps;
  }
};

}  // namespace

SimResult Simulator::run(bat::Battery* battery) {
  scheme_.reset();
  if (battery != nullptr) {
    battery->reset();
  }
  reset_run_state(*scratch_, set_.size());
  Run r(set_, proc_, scheme_, config_, *scratch_, battery);
  r.loop();
  return r.settle();
}

SimResult simulate_scheme(const tg::TaskGraphSet& set,
                          const dvs::Processor& proc, core::SchemeKind kind,
                          const SimConfig& config, bat::Battery* battery) {
  core::Scheme scheme = core::make_scheme(kind, proc.fmax_hz(), config.seed);
  Simulator sim(set, proc, scheme, config);
  return sim.run(battery);
}

}  // namespace bas::sim
