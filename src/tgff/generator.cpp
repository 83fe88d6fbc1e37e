#include "tgff/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bas::tgff {

namespace {

double draw_wcet(const GeneratorParams& p, util::Rng& rng) {
  return rng.uniform(p.wcet_lo_cycles, p.wcet_hi_cycles);
}

void check_params(const GeneratorParams& p) {
  if (p.node_count < 1) {
    throw std::invalid_argument("generator: node_count must be >= 1");
  }
  if (p.max_out_degree < 1 || p.max_in_degree < 1) {
    throw std::invalid_argument("generator: degree bounds must be >= 1");
  }
  if (!(p.wcet_lo_cycles > 0.0) || p.wcet_hi_cycles < p.wcet_lo_cycles) {
    throw std::invalid_argument("generator: bad wcet range");
  }
  if (!(p.edge_density >= 0.0 && p.edge_density <= 1.0)) {
    throw std::invalid_argument("generator: edge_density must be in [0,1]");
  }
}

tg::TaskGraph generate_fanio(const GeneratorParams& p, util::Rng& rng) {
  tg::TaskGraph g;
  std::vector<int> out_degree;
  std::vector<int> in_degree;
  auto new_node = [&] {
    out_degree.push_back(0);
    in_degree.push_back(0);
    return g.add_node(draw_wcet(p, rng));
  };
  new_node();  // root
  while (static_cast<int>(g.node_count()) < p.node_count) {
    const bool fan_out = rng.bernoulli(0.5);
    if (fan_out) {
      // Pick a parent with spare out-degree; attach a random-width fan.
      std::vector<tg::NodeId> parents;
      for (tg::NodeId id = 0; id < g.node_count(); ++id) {
        if (out_degree[id] < p.max_out_degree) {
          parents.push_back(id);
        }
      }
      if (parents.empty()) {
        continue;  // fall through to another iteration (fan-in next time)
      }
      const tg::NodeId parent = parents[rng.index(parents.size())];
      const int room = p.max_out_degree - out_degree[parent];
      const int remaining = p.node_count - static_cast<int>(g.node_count());
      const int width = std::min(rng.uniform_int(1, room), remaining);
      for (int k = 0; k < width; ++k) {
        const tg::NodeId child = new_node();
        g.add_edge(parent, child);
        ++out_degree[parent];
        ++in_degree[child];
      }
    } else {
      // Fan-in: a new node joining several existing branches.
      std::vector<tg::NodeId> eligible;
      for (tg::NodeId id = 0; id < g.node_count(); ++id) {
        if (out_degree[id] < p.max_out_degree) {
          eligible.push_back(id);
        }
      }
      if (eligible.empty()) {
        continue;
      }
      const int fan =
          std::min<int>(rng.uniform_int(1, p.max_in_degree),
                        static_cast<int>(eligible.size()));
      const tg::NodeId merge = new_node();
      // Sample `fan` distinct parents (partial Fisher-Yates).
      for (int k = 0; k < fan; ++k) {
        const std::size_t pick =
            k + rng.index(eligible.size() - static_cast<std::size_t>(k));
        std::swap(eligible[k], eligible[pick]);
        g.add_edge(eligible[k], merge);
        ++out_degree[eligible[k]];
        ++in_degree[merge];
      }
    }
  }
  return g;
}

tg::TaskGraph generate_layered(const GeneratorParams& p, util::Rng& rng) {
  tg::TaskGraph g;
  const int n = p.node_count;
  int layer_count = p.layer_count;
  if (layer_count <= 0) {
    layer_count = std::max(1, static_cast<int>(std::lround(std::sqrt(n))));
  }
  layer_count = std::min(layer_count, n);

  // Assign every node a layer; guarantee each layer is non-empty by
  // seeding one node per layer, then spreading the rest at random.
  std::vector<int> layer_of(n, 0);
  for (int i = 0; i < layer_count; ++i) {
    layer_of[i] = i;
  }
  for (int i = layer_count; i < n; ++i) {
    layer_of[i] = rng.uniform_int(0, layer_count - 1);
  }
  std::vector<std::vector<tg::NodeId>> layers(layer_count);
  for (int i = 0; i < n; ++i) {
    const tg::NodeId id = g.add_node(draw_wcet(p, rng));
    layers[layer_of[i]].push_back(id);
  }
  std::vector<int> in_degree(n, 0);
  std::vector<int> out_degree(n, 0);
  for (int l = 1; l < layer_count; ++l) {
    for (tg::NodeId id : layers[l]) {
      // Mandatory edge from the previous layer keeps the DAG connected
      // in depth (every non-root node has a predecessor).
      const auto& prev = layers[l - 1];
      const tg::NodeId parent = prev[rng.index(prev.size())];
      g.add_edge(parent, id);
      ++out_degree[parent];
      ++in_degree[id];
      // Optional extra edges from any earlier layer.
      for (int e = 0; e < l; ++e) {
        if (in_degree[id] >= p.max_in_degree) {
          break;
        }
        if (!rng.bernoulli(p.edge_density)) {
          continue;
        }
        const auto& src_layer = layers[rng.index(static_cast<std::size_t>(l))];
        const tg::NodeId src = src_layer[rng.index(src_layer.size())];
        if (src == parent || out_degree[src] >= p.max_out_degree) {
          continue;
        }
        const std::size_t before = g.edge_count();
        g.add_edge(src, id);
        if (g.edge_count() != before) {
          ++out_degree[src];
          ++in_degree[id];
        }
      }
    }
  }
  return g;
}

tg::TaskGraph generate_series_parallel(const GeneratorParams& p,
                                       util::Rng& rng) {
  // Start from the two-node chain source->sink and repeatedly apply a
  // series split (insert a node on an edge) or a parallel split
  // (duplicate an edge through a fresh node) until node_count is reached.
  tg::TaskGraph g;
  const tg::NodeId source = g.add_node(draw_wcet(p, rng), "src");
  if (p.node_count == 1) {
    return g;
  }
  const tg::NodeId sink = g.add_node(draw_wcet(p, rng), "sink");
  struct Edge {
    tg::NodeId from, to;
  };
  std::vector<Edge> edges{{source, sink}};
  std::vector<Edge> final_edges;
  while (static_cast<int>(g.node_count()) < p.node_count) {
    const std::size_t pick = rng.index(edges.size());
    const Edge e = edges[pick];
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(pick));
    const tg::NodeId mid = g.add_node(draw_wcet(p, rng));
    if (rng.bernoulli(0.5)) {
      // Series: from -> mid -> to replaces from -> to.
      edges.push_back({e.from, mid});
      edges.push_back({mid, e.to});
    } else {
      // Parallel: keep from -> to and add from -> mid -> to.
      final_edges.push_back(e);
      edges.push_back({e.from, mid});
      edges.push_back({mid, e.to});
    }
  }
  for (const Edge& e : edges) {
    g.add_edge(e.from, e.to);
  }
  for (const Edge& e : final_edges) {
    g.add_edge(e.from, e.to);
  }
  return g;
}

}  // namespace

tg::TaskGraph generate(const GeneratorParams& params, util::Rng& rng) {
  check_params(params);
  tg::TaskGraph g;
  switch (params.method) {
    case Method::kFanInFanOut:
      g = generate_fanio(params, rng);
      break;
    case Method::kLayered:
      g = generate_layered(params, rng);
      break;
    case Method::kSeriesParallel:
      g = generate_series_parallel(params, rng);
      break;
  }
  g.set_period(1.0);  // placeholder; workload builder reassigns
  g.validate();
  return g;
}

}  // namespace bas::tgff
