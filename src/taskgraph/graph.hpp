#pragma once
// Periodic task graphs: the workload model of the paper.
//
// A TaskGraph is a directed acyclic graph whose nodes are tasks with a
// worst-case computation demand expressed in CPU cycles, and whose edges
// are precedence constraints. Graphs are periodic; the relative deadline
// equals the period, and every node of an instance must finish by that
// instance's absolute deadline (paper §4, problem definition).

#include <cstdint>
#include <string>
#include <vector>

namespace bas::tg {

using NodeId = std::uint32_t;

/// One task (node) of a task graph.
struct Node {
  /// Worst-case computation demand in CPU cycles (> 0).
  double wcet_cycles = 0.0;
  /// Optional human-readable name; auto-generated as "n<k>" when empty.
  std::string name;
};

/// A periodic DAG of tasks with precedence constraints.
///
/// Mutation API (add_node/add_edge/set_period) is used by generators and
/// by hand-built examples; once handed to the simulator the graph is only
/// read. Call validate() (or let TaskGraphSet do it) after construction.
class TaskGraph {
 public:
  TaskGraph() = default;
  /// Constructs with a period (seconds); deadline is implicitly the period.
  explicit TaskGraph(double period_s, std::string name = {});

  /// Adds a task with the given worst-case cycles; returns its id.
  NodeId add_node(double wcet_cycles, std::string name = {});

  /// Adds the precedence edge `from` -> `to`. Duplicate edges are ignored.
  /// Throws std::out_of_range for unknown ids and std::invalid_argument
  /// for self-loops.
  void add_edge(NodeId from, NodeId to);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  const std::vector<NodeId>& successors(NodeId id) const {
    return succ_.at(id);
  }
  const std::vector<NodeId>& predecessors(NodeId id) const {
    return pred_.at(id);
  }

  double period() const noexcept { return period_s_; }
  void set_period(double period_s) { period_s_ = period_s; }
  /// Relative deadline; equal to the period in this model.
  double deadline() const noexcept { return period_s_; }

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Sum of all nodes' worst-case cycles (the paper's WCi at release).
  double total_wcet_cycles() const noexcept;

  /// Scales every node's wcet by `factor` (> 0). Used by the workload
  /// builder to hit a target utilization.
  void scale_wcet(double factor);

  /// True when the graph has no directed cycle.
  bool is_acyclic() const;

  /// Kahn topological order (lowest-id-first tie-break for determinism).
  /// Throws std::logic_error when the graph is cyclic.
  std::vector<NodeId> topological_order() const;

  /// Nodes without predecessors.
  std::vector<NodeId> sources() const;
  /// Nodes without successors.
  std::vector<NodeId> sinks() const;

  /// Checks structural invariants: at least one node, positive period,
  /// positive wcets, acyclicity. Throws std::logic_error on violation.
  void validate() const;

 private:
  std::string name_;
  double period_s_ = 0.0;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  std::size_t edge_count_ = 0;
};

}  // namespace bas::tg
