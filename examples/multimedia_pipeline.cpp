// Domain example: a handheld media player (the paper's motivating class
// of device). A video pipeline, an audio pipeline and a UI task share
// one DVS processor; we compare how long a charge lasts under each of
// the five Table-2 schemes, and what that means in minutes of playback.
//
// The task graphs are hand-crafted (named stages, real frame rates);
// the platform and simulation knobs come from the scenario registry's
// `multimedia-pipeline` preset — the same world whose *randomized*
// cousin the scenario gallery sweeps.
//
//   multimedia_pipeline            every scheme until the battery dies
//   multimedia_pipeline --smoke    a 10-minute horizon: the same code
//                                  paths in a fraction of the time (the
//                                  cell outlives it, so the minutes
//                                  column reads the horizon)

#include <cstdio>

#include "analysis/compare.hpp"
#include "scenario/scenario.hpp"
#include "taskgraph/set.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

bas::tg::TaskGraphSet media_player_workload() {
  using namespace bas;
  tg::TaskGraphSet set;

  // Video: fetch -> [decode-luma || decode-chroma] -> deblock -> render,
  // 25 fps. Cycle budgets sized for ~48% of a 1 GHz core in the worst
  // case, with large data-dependent variation frame to frame.
  {
    tg::TaskGraph video(0.040, "video");
    const auto fetch = video.add_node(1.5e6, "fetch");
    const auto luma = video.add_node(7.0e6, "decode-luma");
    const auto chroma = video.add_node(4.0e6, "decode-chroma");
    const auto deblock = video.add_node(4.0e6, "deblock");
    const auto render = video.add_node(2.5e6, "render");
    video.add_edge(fetch, luma);
    video.add_edge(fetch, chroma);
    video.add_edge(luma, deblock);
    video.add_edge(chroma, deblock);
    video.add_edge(deblock, render);
    set.add(std::move(video));
  }

  // Audio: demux -> decode -> mix, 50 Hz, ~15% worst case.
  {
    tg::TaskGraph audio(0.020, "audio");
    const auto demux = audio.add_node(0.4e6, "demux");
    const auto decode = audio.add_node(2.0e6, "decode");
    const auto mix = audio.add_node(0.6e6, "mix");
    audio.add_edge(demux, decode);
    audio.add_edge(decode, mix);
    set.add(std::move(audio));
  }

  // UI/housekeeping: input scan -> update, 5 Hz, ~7% worst case.
  {
    tg::TaskGraph ui(0.200, "ui");
    const auto scan = ui.add_node(4e6, "input-scan");
    const auto update = ui.add_node(10e6, "screen-update");
    ui.add_edge(scan, update);
    set.add(std::move(ui));
  }
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bas;
  const util::Cli cli(argc, argv, {{"smoke", "false"}});
  const auto set = media_player_workload();
  const auto& world = scenario::scenario("multimedia-pipeline");
  const auto proc = world.make_processor();
  std::printf("media player: %zu graphs, %zu tasks, worst-case utilization "
              "%.1f%%\n\n",
              set.size(), set.total_nodes(),
              100.0 * set.utilization(proc.fmax_hz()));

  const auto battery = world.make_battery();
  auto config = world.sim_config(11);  // per-node-mean: frames have texture
  config.horizon_s = cli.get_flag("smoke") ? 600.0 : 48.0 * 3600.0;

  const auto outcomes = analysis::compare_schemes(
      set, proc, core::table2_schemes(), config, battery.get());

  util::Table table({"scheme", "playback (min)", "delivered (mAh)",
                     "avg current (A)", "frames decoded", "misses"});
  for (const auto& o : outcomes) {
    table.add_row(
        {o.scheme, util::Table::num(o.result.battery_lifetime_s / 60.0, 0),
         util::Table::num(o.result.battery_delivered_mah, 0),
         util::Table::num(o.result.average_current_a(), 3),
         util::Table::num(static_cast<long long>(
             o.result.battery_lifetime_s / 0.040)),
         util::Table::num(static_cast<long long>(
             o.result.deadline_misses))});
  }
  table.print();
  std::printf(
      "\nEvery frame deadline holds under all schemes; the scheduler "
      "choice alone decides how much of the same battery the player "
      "gets to use.\n");

  // Real players never see a perfect frame clock: network and decoder
  // queues jitter every release. Re-run the comparison with bounded
  // release jitter (20% of each stream's period) — deadlines stay
  // release-relative, and the battery-aware ordering keeps its edge on
  // the rougher traffic.
  config.arrival.model = "periodic-jitter";
  config.arrival.params.jitter_frac = 0.2;
  const auto jittered = analysis::compare_schemes(
      set, proc, core::table2_schemes(), config, battery.get());

  util::print_banner("Same pipelines, 20% release jitter per stream");
  util::Table jtable({"scheme", "playback (min)", "delivered (mAh)",
                      "misses"});
  for (const auto& o : jittered) {
    jtable.add_row(
        {o.scheme, util::Table::num(o.result.battery_lifetime_s / 60.0, 0),
         util::Table::num(o.result.battery_delivered_mah, 0),
         util::Table::num(static_cast<long long>(
             o.result.deadline_misses))});
  }
  jtable.print();
  std::printf(
      "\nJitter squeezes the window between releases: a frame that is "
      "still decoding when its jittered successor arrives is dropped "
      "(single-buffered pipelines) and counted as a miss. BAS-2 defers "
      "imminent work the longest, so it alone grazes that edge — a few "
      "frames per thousand — while keeping the laEDF-level lifetime.\n");
  return 0;
}
