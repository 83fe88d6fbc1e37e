// Paper-anchor regression thresholds: the repo's reason to exist is
// that battery-aware ordering (BAS-2) outlives plain laEDF on the
// paper's evaluation worlds. These smoke-scale sweeps pin that shape
// per scenario so an estimator, feasibility or calibration regression
// fails loudly in ctest/CI instead of silently flattening the gap.
//
// The runs are deterministic (fixed seed, fixed replicate count, the
// engine's thread-count-invariant fold), so the assertions either hold
// on every run or on none — there is no flake margin to tune.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/factories.hpp"
#include "exp/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

struct AnchorResult {
  std::vector<double> lifetime_by_scheme;
  double edf() const {
    return lifetime_by_scheme.at(exp::scheme_index("EDF"));
  }
  double laedf() const {
    return lifetime_by_scheme.at(exp::scheme_index("laEDF"));
  }
  double bas2() const {
    return lifetime_by_scheme.at(exp::scheme_index("BAS-2"));
  }
};

/// Mean battery lifetime per Table-2 scheme on a scenario preset, at
/// smoke scale (4 replicates — the same order of magnitude the CI
/// determinism smokes run).
AnchorResult run_anchor(const std::string& scenario_name) {
  const auto& scn = scenario::scenario(scenario_name);
  const auto proc = scn.make_processor();

  exp::ExperimentSpec spec;
  spec.title = "anchor_" + scenario_name;
  spec.grid.add("scheme", exp::scheme_labels());
  spec.metrics = {"lifetime_min"};
  spec.replicates = 4;
  spec.seed = 2006;  // table2_battery_lifetime's default seed
  spec.run = [&](const exp::Job& job) -> std::vector<double> {
    util::Rng rng(job.replicate_seed);
    const auto set = scn.make_workload(rng);
    const auto config =
        scn.sim_config(util::Rng::hash_combine(job.replicate_seed, 1000u));
    const auto battery = scn.make_battery();
    const auto r = sim::simulate_scheme(
        set, proc, exp::scheme_kind_at(job.at(0)), config, battery.get());
    EXPECT_TRUE(r.battery_died) << scenario_name << ": horizon too short "
                                   "for a lifetime anchor";
    return {r.battery_lifetime_s / 60.0};
  };

  const auto result = exp::run_experiment(spec, 4);
  AnchorResult anchor;
  for (std::size_t k = 0; k < exp::scheme_labels().size(); ++k) {
    anchor.lifetime_by_scheme.push_back(result.mean(k, 0));
    EXPECT_GT(anchor.lifetime_by_scheme.back(), 0.0);
  }
  return anchor;
}

TEST(PaperAnchors, Bas2OutlivesLaEdfOnPaperTable2) {
  const auto anchor = run_anchor("paper-table2");
  // The paper's headline: BAS-2 gains up to +23.3% lifetime over laEDF.
  // Our calibration sits lower at smoke scale (see EXPERIMENTS.md), but
  // the gain must stay strictly positive — 0.1% slack only absorbs
  // last-digit rounding, not a real regression.
  EXPECT_GE(anchor.bas2(), 1.001 * anchor.laedf())
      << "BAS-2 lifetime " << anchor.bas2() << " min vs laEDF "
      << anchor.laedf() << " min";
  // And DVS must beat no-DVS by a wide margin (Table 2 shape).
  EXPECT_GE(anchor.laedf(), 1.2 * anchor.edf());
}

TEST(PaperAnchors, Bas2OutlivesLaEdfOnPaperGuideline1) {
  // The high-load regime where the discharge-profile shape (Guideline
  // 1) decides the gap — the anchor the battery models earn their keep
  // on.
  const auto anchor = run_anchor("paper-guideline1");
  EXPECT_GE(anchor.bas2(), 1.001 * anchor.laedf())
      << "BAS-2 lifetime " << anchor.bas2() << " min vs laEDF "
      << anchor.laedf() << " min";
}

}  // namespace
}  // namespace bas
