#include "taskgraph/algorithms.hpp"

namespace bas::tg {

bool is_topological_order(const TaskGraph& g,
                          const std::vector<NodeId>& order) {
  if (order.size() != g.node_count()) {
    return false;
  }
  std::vector<std::size_t> position(g.node_count(), 0);
  std::vector<bool> seen(g.node_count(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId id = order[i];
    if (id >= g.node_count() || seen[id]) {
      return false;
    }
    seen[id] = true;
    position[id] = i;
  }
  for (NodeId a = 0; a < g.node_count(); ++a) {
    for (NodeId b : g.successors(a)) {
      if (position[a] >= position[b]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace bas::tg
