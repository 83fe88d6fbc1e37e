// Quickstart: build a periodic task-graph workload, pick the paper's
// BAS-2 scheme, simulate it on the 3-point DVS processor, and estimate
// battery lifetime on the calibrated AAA NiMH cell.
//
//   $ ./build/examples/quickstart
//
// This walks through the whole public API surface in ~60 lines of code:
// task graphs -> workload -> scheme -> simulator -> battery.

#include <cstdio>

#include "core/scheme.hpp"
#include "exp/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "taskgraph/set.hpp"

int main(int argc, char** argv) {
  using namespace bas;
  return exp::run_main(argc, argv, {}, [](util::Cli&) {
    // 1. Describe the workload: two periodic task graphs with precedence
    //    constraints. Work is in CPU cycles, periods in seconds, and each
    //    graph's deadline equals its period.
    tg::TaskGraphSet workload;
    {
      tg::TaskGraph video(0.040, "video");     // 25 fps pipeline
      const auto fetch = video.add_node(4e6, "fetch");
      const auto decode = video.add_node(14e6, "decode");
      const auto filter = video.add_node(8e6, "filter");
      const auto render = video.add_node(6e6, "render");
      video.add_edge(fetch, decode);
      video.add_edge(decode, filter);
      video.add_edge(decode, render);
      workload.add(std::move(video));

      tg::TaskGraph telemetry(0.100, "telemetry");  // 10 Hz housekeeping
      const auto sample = telemetry.add_node(3e6, "sample");
      const auto pack = telemetry.add_node(2e6, "pack");
      const auto send = telemetry.add_node(5e6, "send");
      telemetry.add_edge(sample, pack);
      telemetry.add_edge(pack, send);
      workload.add(std::move(telemetry));
    }
    workload.validate();

    // 2. The platform comes from the scenario registry: the paper's
    //    processor — (0.5 GHz, 3 V), (0.75 GHz, 4 V), (1 GHz, 5 V) behind
    //    a DC-DC converter on a 1.2 V battery rail — paired with the
    //    calibrated 2000 mAh KiBaM cell.
    const auto& world = scenario::scenario("paper-table2");
    const auto proc = world.make_processor();
    std::printf("workload: %zu graphs, worst-case utilization %.1f%%\n",
                workload.size(), 100.0 * workload.utilization(proc.fmax_hz()));

    // 3. The scheme: BAS-2 = laEDF frequency setting + pUBS ordering over
    //    all released graphs, guarded by the feasibility check.
    core::Scheme scheme = core::make_scheme(core::SchemeKind::kBas2,
                                            proc.fmax_hz(), /*seed=*/1);

    // 4. Simulate 30 seconds of operation and audit the result.
    sim::SimConfig config;
    config.horizon_s = 30.0;
    config.seed = 42;
    const auto energy_run =
        sim::Simulator(workload, proc, scheme, config).run();
    std::printf(
        "30 s run: %llu instances, %llu nodes, %zu deadline misses,\n"
        "          %.2f J core energy, %.3f A average battery current\n",
        static_cast<unsigned long long>(energy_run.instances_completed),
        static_cast<unsigned long long>(energy_run.nodes_executed),
        energy_run.deadline_misses, energy_run.energy_j,
        energy_run.average_current_a());

    // 5. Attach the scenario's battery and run until it dies.
    const auto battery = world.make_battery();
    sim::SimConfig life_config = config;
    life_config.horizon_s = 24.0 * 3600.0;
    life_config.drain = false;
    life_config.record_profile = false;
    const auto life_run =
        sim::Simulator(workload, proc, scheme, life_config).run(battery.get());
    std::printf("battery: died=%s, lifetime %.1f min, delivered %.0f mAh\n",
                life_run.battery_died ? "yes" : "no",
                life_run.battery_lifetime_s / 60.0,
                life_run.battery_delivered_mah);
    return 0;
  });
}
