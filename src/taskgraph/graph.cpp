#include "taskgraph/graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace bas::tg {

TaskGraph::TaskGraph(double period_s, std::string name)
    : name_(std::move(name)), period_s_(period_s) {}

NodeId TaskGraph::add_node(double wcet_cycles, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) {
    name = "n" + std::to_string(id);
  }
  nodes_.push_back(Node{wcet_cycles, std::move(name)});
  succ_.emplace_back();
  pred_.emplace_back();
  return id;
}

void TaskGraph::add_edge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("TaskGraph::add_edge: unknown node id");
  }
  if (from == to) {
    throw std::invalid_argument("TaskGraph::add_edge: self-loop");
  }
  auto& out = succ_[from];
  if (std::find(out.begin(), out.end(), to) != out.end()) {
    return;  // duplicate edge
  }
  out.push_back(to);
  pred_[to].push_back(from);
  ++edge_count_;
}

double TaskGraph::total_wcet_cycles() const noexcept {
  double total = 0.0;
  for (const auto& n : nodes_) {
    total += n.wcet_cycles;
  }
  return total;
}

void TaskGraph::scale_wcet(double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("TaskGraph::scale_wcet: factor must be > 0");
  }
  for (auto& n : nodes_) {
    n.wcet_cycles *= factor;
  }
}

bool TaskGraph::is_acyclic() const {
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    in_degree[id] = pred_[id].size();
  }
  std::vector<NodeId> frontier;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (in_degree[id] == 0) {
      frontier.push_back(id);
    }
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const NodeId id = frontier.back();
    frontier.pop_back();
    ++visited;
    for (NodeId next : succ_[id]) {
      if (--in_degree[next] == 0) {
        frontier.push_back(next);
      }
    }
  }
  return visited == nodes_.size();
}

std::vector<NodeId> TaskGraph::topological_order() const {
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    in_degree[id] = pred_[id].size();
  }
  // Min-heap on node id keeps the order deterministic across platforms.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (in_degree[id] == 0) {
      ready.push(id);
    }
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (NodeId next : succ_[id]) {
      if (--in_degree[next] == 0) {
        ready.push(next);
      }
    }
  }
  if (order.size() != nodes_.size()) {
    throw std::logic_error("TaskGraph::topological_order: graph is cyclic");
  }
  return order;
}

std::vector<NodeId> TaskGraph::sources() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (pred_[id].empty()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::sinks() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (succ_[id].empty()) {
      out.push_back(id);
    }
  }
  return out;
}

void TaskGraph::validate() const {
  if (nodes_.empty()) {
    throw std::logic_error("TaskGraph: no nodes");
  }
  if (period_s_ <= 0.0) {
    throw std::logic_error("TaskGraph: period must be positive");
  }
  for (const auto& n : nodes_) {
    if (!(n.wcet_cycles > 0.0)) {
      throw std::logic_error("TaskGraph: node wcet must be positive");
    }
  }
  if (!is_acyclic()) {
    throw std::logic_error("TaskGraph: precedence graph has a cycle");
  }
}

}  // namespace bas::tg
