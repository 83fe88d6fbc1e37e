// Tests for the TGFF-style generator and workload builder, including
// parameterized property sweeps over generation methods and sizes.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "taskgraph/algorithms.hpp"
#include "tgff/generator.hpp"
#include "tgff/workload.hpp"

namespace bas {
namespace {

using GenCase = std::tuple<tgff::Method, int, std::uint64_t>;

class GeneratorProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperty, ProducesValidDagOfRequestedSize) {
  const auto [method, nodes, seed] = GetParam();
  tgff::GeneratorParams p;
  p.method = method;
  p.node_count = nodes;
  util::Rng rng(seed);
  const auto g = tgff::generate(p, rng);
  EXPECT_EQ(g.node_count(), static_cast<std::size_t>(nodes));
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_NO_THROW(g.validate());
  for (tg::NodeId id = 0; id < g.node_count(); ++id) {
    EXPECT_GE(g.node(id).wcet_cycles, p.wcet_lo_cycles);
    EXPECT_LE(g.node(id).wcet_cycles, p.wcet_hi_cycles);
  }
}

TEST_P(GeneratorProperty, DeterministicGivenSeed) {
  const auto [method, nodes, seed] = GetParam();
  tgff::GeneratorParams p;
  p.method = method;
  p.node_count = nodes;
  util::Rng rng1(seed);
  util::Rng rng2(seed);
  const auto a = tgff::generate(p, rng1);
  const auto b = tgff::generate(p, rng2);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (tg::NodeId id = 0; id < a.node_count(); ++id) {
    EXPECT_DOUBLE_EQ(a.node(id).wcet_cycles, b.node(id).wcet_cycles);
    EXPECT_EQ(a.successors(id), b.successors(id));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndSizes, GeneratorProperty,
    ::testing::Combine(::testing::Values(tgff::Method::kFanInFanOut,
                                         tgff::Method::kLayered,
                                         tgff::Method::kSeriesParallel),
                       ::testing::Values(1, 5, 10, 15, 30),
                       ::testing::Values(1u, 42u, 20260612u)));

TEST(Generator, DegreeBoundsHonoredByFanio) {
  tgff::GeneratorParams p;
  p.method = tgff::Method::kFanInFanOut;
  p.node_count = 40;
  p.max_out_degree = 2;
  p.max_in_degree = 2;
  util::Rng rng(11);
  const auto g = tgff::generate(p, rng);
  for (tg::NodeId id = 0; id < g.node_count(); ++id) {
    EXPECT_LE(g.successors(id).size(), 2u);
    EXPECT_LE(g.predecessors(id).size(), 2u);
  }
}

TEST(Generator, DegreeBoundsHonoredByLayered) {
  tgff::GeneratorParams p;
  p.method = tgff::Method::kLayered;
  p.node_count = 40;
  p.max_out_degree = 3;
  p.max_in_degree = 2;
  p.edge_density = 0.9;
  util::Rng rng(11);
  const auto g = tgff::generate(p, rng);
  for (tg::NodeId id = 0; id < g.node_count(); ++id) {
    EXPECT_LE(g.predecessors(id).size(), 2u);
  }
}

TEST(Generator, FanioIsConnectedFromRoot) {
  tgff::GeneratorParams p;
  p.method = tgff::Method::kFanInFanOut;
  p.node_count = 30;
  util::Rng rng(13);
  const auto g = tgff::generate(p, rng);
  // Every non-source node must have at least one predecessor, so the
  // graph has real structure, not a bag of isolated tasks.
  std::size_t with_preds = 0;
  for (tg::NodeId id = 0; id < g.node_count(); ++id) {
    if (!g.predecessors(id).empty()) {
      ++with_preds;
    }
  }
  EXPECT_GT(with_preds, g.node_count() / 2);
}

TEST(Generator, SeriesParallelHasSingleSourceAndSink) {
  tgff::GeneratorParams p;
  p.method = tgff::Method::kSeriesParallel;
  p.node_count = 25;
  util::Rng rng(17);
  const auto g = tgff::generate(p, rng);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
}

TEST(Generator, RejectsBadParams) {
  util::Rng rng(1);
  tgff::GeneratorParams p;
  p.node_count = 0;
  EXPECT_THROW(tgff::generate(p, rng), std::invalid_argument);
  p.node_count = 5;
  p.max_in_degree = 0;
  EXPECT_THROW(tgff::generate(p, rng), std::invalid_argument);
  p.max_in_degree = 2;
  p.wcet_hi_cycles = p.wcet_lo_cycles / 2;
  EXPECT_THROW(tgff::generate(p, rng), std::invalid_argument);
}

TEST(Generator, RejectsNanEdgeDensity) {
  util::Rng rng(1);
  tgff::GeneratorParams p;
  p.edge_density = std::nan("");
  EXPECT_THROW(tgff::generate(p, rng), std::invalid_argument);
}

class WorkloadUtilization
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(WorkloadUtilization, HitsTargetExactly) {
  const auto [graphs, target] = GetParam();
  tgff::WorkloadParams p;
  p.graph_count = graphs;
  p.target_utilization = target;
  util::Rng rng(7u + static_cast<std::uint64_t>(graphs));
  const auto set = tgff::make_workload(p, rng);
  EXPECT_EQ(set.size(), static_cast<std::size_t>(graphs));
  EXPECT_NEAR(set.utilization(p.fmax_hz), target, 1e-9);
  EXPECT_NO_THROW(set.validate());
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndTargets, WorkloadUtilization,
    ::testing::Combine(::testing::Values(1, 3, 5, 10),
                       ::testing::Values(0.3, 0.5, 0.7, 0.95)));

TEST(Workload, PeriodsWithinRange) {
  tgff::WorkloadParams p;
  p.graph_count = 8;
  util::Rng rng(5);
  const auto set = tgff::make_workload(p, rng);
  for (const auto& g : set) {
    EXPECT_GE(g.period(), p.period_lo_s * (1 - 1e-12));
    EXPECT_LE(g.period(), p.period_hi_s * (1 + 1e-12));
  }
}

TEST(Workload, NodeCountsWithinRange) {
  tgff::WorkloadParams p;
  p.graph_count = 10;
  p.min_nodes = 5;
  p.max_nodes = 15;
  util::Rng rng(6);
  const auto set = tgff::make_workload(p, rng);
  for (const auto& g : set) {
    EXPECT_GE(g.node_count(), 5u);
    EXPECT_LE(g.node_count(), 15u);
  }
}

TEST(Workload, PaperWorkloadMatchesPaperSetup) {
  util::Rng rng(2006);
  const auto set = tgff::paper_workload(3, rng);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_NEAR(set.utilization(1e9), 0.7, 1e-9);
}

TEST(Workload, RejectsBadParams) {
  util::Rng rng(1);
  tgff::WorkloadParams p;
  p.graph_count = 0;
  EXPECT_THROW(tgff::make_workload(p, rng), std::invalid_argument);
  p.graph_count = 2;
  p.target_utilization = 2.5;  // worst-case utilization capped at 2
  EXPECT_THROW(tgff::make_workload(p, rng), std::invalid_argument);
  p.target_utilization = 0.7;
  p.period_hi_s = p.period_lo_s / 2;
  EXPECT_THROW(tgff::make_workload(p, rng), std::invalid_argument);
}

}  // namespace
}  // namespace bas
