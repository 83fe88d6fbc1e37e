#include "tgff/workload.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bas::tgff {

tg::TaskGraphSet make_workload(const WorkloadParams& params, util::Rng& rng) {
  if (params.graph_count < 1) {
    throw std::invalid_argument("make_workload: graph_count must be >= 1");
  }
  // Worst-case utilization above 1 is allowed (up to 2): the paper's
  // evaluation keeps the *actual* utilization at 70%, which with actuals
  // in U(0.2, 1.0)*wc puts the worst-case utilization near 1.17. EDF's
  // worst-case guarantee no longer holds there; the simulator reports
  // any misses that materialize.
  if (!(params.target_utilization > 0.0) || params.target_utilization > 2.0) {
    throw std::invalid_argument(
        "make_workload: target_utilization must be in (0, 2]");
  }
  if (params.min_nodes < 1 || params.max_nodes < params.min_nodes) {
    throw std::invalid_argument("make_workload: bad node-count range");
  }
  if (!(params.period_lo_s > 0.0) || params.period_hi_s < params.period_lo_s) {
    throw std::invalid_argument("make_workload: bad period range");
  }

  // Random utilization shares.
  std::vector<double> weights(static_cast<std::size_t>(params.graph_count));
  double weight_sum = 0.0;
  for (auto& w : weights) {
    w = rng.uniform(1.0, 1.0 + std::max(0.0, params.utilization_spread));
    weight_sum += w;
  }

  tg::TaskGraphSet set;
  for (int i = 0; i < params.graph_count; ++i) {
    GeneratorParams shape = params.shape;
    shape.node_count = rng.uniform_int(params.min_nodes, params.max_nodes);
    tg::TaskGraph g = generate(shape, rng);

    // Log-uniform period in [lo, hi].
    const double log_lo = std::log(params.period_lo_s);
    const double log_hi = std::log(params.period_hi_s);
    const double period = std::exp(rng.uniform(log_lo, log_hi));
    g.set_period(period);
    std::string name = "G";
    name += std::to_string(i);
    g.set_name(std::move(name));

    // Rescale wcets so this graph contributes exactly its share:
    //   u_i = target * w_i / sum(w)  =  (WC_i / fmax) / period_i
    const double u_i = params.target_utilization *
                       weights[static_cast<std::size_t>(i)] / weight_sum;
    const double wanted_cycles = u_i * params.fmax_hz * period;
    const double factor = wanted_cycles / g.total_wcet_cycles();
    g.scale_wcet(factor);

    set.add(std::move(g));
  }
  set.validate();
  return set;
}

tg::TaskGraphSet paper_workload(int graph_count, util::Rng& rng) {
  WorkloadParams p;
  p.graph_count = graph_count;
  p.min_nodes = 5;
  p.max_nodes = 15;
  p.target_utilization = 0.7;
  p.fmax_hz = 1.0e9;
  return make_workload(p, rng);
}

}  // namespace bas::tgff
