#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace bas::sim {

namespace {

constexpr double kTol = 1e-6;  // seconds of tolerance for float drift

void note(TraceAudit& audit, std::size_t& counter, const std::string& what) {
  ++counter;
  audit.ok = false;
  if (audit.first_problem.empty()) {
    audit.first_problem = what;
  }
}

}  // namespace

std::string TraceAudit::summary() const {
  if (ok) {
    return "trace audit: clean";
  }
  std::ostringstream out;
  out << "trace audit: FAILED (overlap=" << overlap_violations
      << ", precedence=" << precedence_violations
      << ", window=" << window_violations
      << ", frequency=" << frequency_violations
      << ", incomplete=" << incomplete_instances << "): " << first_problem;
  return out.str();
}

TraceAudit audit_trace(const std::vector<ExecSlice>& trace,
                       const tg::TaskGraphSet& set,
                       const dvs::Processor& proc, bool drained) {
  TraceAudit audit;

  // --- processor exclusivity & frequency range --------------------------
  std::vector<const ExecSlice*> by_time;
  by_time.reserve(trace.size());
  for (const auto& s : trace) {
    by_time.push_back(&s);
  }
  std::sort(by_time.begin(), by_time.end(),
            [](const ExecSlice* a, const ExecSlice* b) {
              return a->start_s < b->start_s;
            });
  for (std::size_t i = 0; i < by_time.size(); ++i) {
    const auto& s = *by_time[i];
    if (s.end_s < s.start_s - kTol) {
      note(audit, audit.overlap_violations, "slice with negative duration");
    }
    if (i + 1 < by_time.size() &&
        by_time[i + 1]->start_s < s.end_s - kTol) {
      std::ostringstream what;
      what << "overlap at t=" << by_time[i + 1]->start_s;
      note(audit, audit.overlap_violations, what.str());
    }
    if (s.freq_hz > proc.fmax_hz() * (1.0 + 1e-9) ||
        s.freq_hz < proc.fmin_hz() * (1.0 - 1e-9)) {
      std::ostringstream what;
      what << "frequency " << s.freq_hz << " outside processor range";
      note(audit, audit.frequency_violations, what.str());
    }
  }

  // --- per-instance grouping --------------------------------------------
  struct Key {
    int graph;
    std::uint32_t instance;
    bool operator<(const Key& other) const {
      return std::tie(graph, instance) <
             std::tie(other.graph, other.instance);
    }
  };
  std::map<Key, std::vector<const ExecSlice*>> instances;
  for (const auto& s : trace) {
    instances[{s.graph, s.instance}].push_back(&s);
  }

  double trace_end = 0.0;
  for (const auto& s : trace) {
    trace_end = std::max(trace_end, s.end_s);
  }

  for (auto& [key, slices] : instances) {
    const auto& graph = set.graph(static_cast<std::size_t>(key.graph));

    std::sort(slices.begin(), slices.end(),
              [](const ExecSlice* a, const ExecSlice* b) {
                return a->start_s < b->start_s;
              });

    // Window containment, against the window each slice recorded.
    for (const auto* s : slices) {
      if (s->start_s < s->release_s - kTol ||
          s->end_s > s->deadline_s + kTol) {
        std::ostringstream what;
        what << "graph " << key.graph << " instance " << key.instance
             << " executed outside its window at t=" << s->start_s;
        note(audit, audit.window_violations, what.str());
      }
    }

    // First-start / last-end per node for precedence checking, and node
    // completeness.
    std::map<tg::NodeId, std::pair<double, double>> node_span;
    for (const auto* s : slices) {
      auto [it, inserted] =
          node_span.try_emplace(s->node, s->start_s, s->end_s);
      if (!inserted) {
        it->second.first = std::min(it->second.first, s->start_s);
        it->second.second = std::max(it->second.second, s->end_s);
      }
    }
    for (const auto& [node, span] : node_span) {
      for (tg::NodeId p : graph.predecessors(node)) {
        const auto pit = node_span.find(p);
        if (pit == node_span.end() || span.first < pit->second.second - kTol) {
          std::ostringstream what;
          what << "graph " << key.graph << " instance " << key.instance
               << ": node " << node << " started before predecessor " << p
               << " finished";
          note(audit, audit.precedence_violations, what.str());
        }
      }
    }

    if (drained && node_span.size() != graph.node_count()) {
      // Instances released too close to the end of a capped run are
      // forgivable only in non-drained mode.
      std::ostringstream what;
      what << "graph " << key.graph << " instance " << key.instance
           << " incomplete (" << node_span.size() << "/" << graph.node_count()
           << " nodes)";
      note(audit, audit.incomplete_instances, what.str());
    }
  }
  return audit;
}

}  // namespace bas::sim
