#pragma once
// Graph algorithms on task graphs beyond the basics TaskGraph itself
// offers: topological-order validation, used by the exhaustive
// single-DAG search (sched/optimal) to check the orders it is given.

#include <vector>

#include "taskgraph/graph.hpp"

namespace bas::tg {

/// True when `order` is a valid topological order of g.
bool is_topological_order(const TaskGraph& g,
                          const std::vector<NodeId>& order);

}  // namespace bas::tg
