#!/usr/bin/env bash
# Differential bit-identity smoke (ctest: golden_bit_identity).
#
# Two battery modes, two golden sets, plus one battery-less golden:
#
#   *_window0.csv — battery merging off (--scenario.battery-window=0):
#                   one kernel draw per executed slice. These bytes were
#                   first generated before the event-driven core existed
#                   and have never moved; they anchor the simulator's
#                   original trajectory.
#   *.csv         — the default 5 s merge window. Outputs differ from
#                   window 0 only through merged battery arithmetic
#                   (SimConfig::battery_window_s); the numerical-
#                   equivalence argument lives in EXPERIMENTS.md,
#                   "Event-driven core". Within one mode the outputs are
#                   bit-deterministic, which is what this file pins.
#
# table2 runs fresh, on paper-table2 (KiBaM), on idle-heavy (the
# stochastic cell, the only golden that reaches that kernel; at window
# 0 most execution slices are shorter than a 10 ms slot, so it pins the
# partial-slot path too) and on sensor-node (the diffusion cell, the
# only golden that reaches that kernel). arrival_stress goes through the campaign
# store (a --cache run, then a --merge from the store alone), so the
# store's byte-identity is covered per mode as well.
#
#   fig6_smoke.csv — fig6_ordering_schemes: no battery, laEDF with the
#                   Random/LTF/pUBS orderings in both scopes against
#                   the near-optimal reference. It is the only golden
#                   on the energy-only path, so it runs once, outside
#                   the battery-mode loop.
#
# revisions.txt pairs each results revision (exp::kResultsRevision,
# src/exp/plan.hpp) with the sha256 of the golden CSVs, concatenated in
# name order. It is append-only: the revisions strictly increase, and
# the last line names today's revision and today's goldens, so goldens
# regenerated without a bump of the revision fail here.
#
# If a future change moves the bytes ON PURPOSE (a genuine semantic
# change, not a perf transformation), regenerate with the commands
# below, bump kResultsRevision, append its line to revisions.txt
#
#   (export LC_ALL=C; echo "<revision> $(cat tests/golden/*.csv \
#       | sha256sum | cut -d' ' -f1)") >> tests/golden/revisions.txt
#
# and say so in the change. The window-0 goldens should only ever be
# regenerated together with a written waiver:
#
#   table2_battery_lifetime --sets 2 --jobs 2 --csv tests/golden/table2_smoke.csv
#   table2_battery_lifetime --scenario idle-heavy --sets 1 --jobs 2 \
#       --csv tests/golden/idle_stochastic_smoke.csv
#   table2_battery_lifetime --scenario sensor-node --sets 1 --jobs 2 \
#       --csv tests/golden/sensor_node_smoke.csv
#   arrival_stress --sets 1 --scenario.horizon 600 --jobs 2 \
#       --csv tests/golden/arrival_stress_smoke.csv
#   (append --scenario.battery-window=0 for the *_window0.csv variants)
#   fig6_ordering_schemes --sets 2 --jobs 2 --csv tests/golden/fig6_smoke.csv
#
# Usage: golden_outputs_smoke.sh /path/to/table2 /path/to/arrival_stress \
#            /path/to/fig6_ordering_schemes golden_dir /path/to/plan.hpp

set -euo pipefail
export LC_ALL=C

table2="$1"
arrival="$2"
fig6="$3"
golden="$4"
plan="$5"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# 0. The revision manifest: revisions strictly increase (sort -c -u on
#    the numeric first field), and the last line names today's revision
#    and today's goldens. LC_ALL=C makes the glob byte-sorted.
revision=$(sed -n 's/.*kResultsRevision = \([0-9][0-9]*\);.*/\1/p' "$plan")
hash=$(cat "$golden"/*.csv | sha256sum | cut -d' ' -f1)
sort -c -u -n -k1,1 "$golden/revisions.txt"
last=$(tail -n 1 "$golden/revisions.txt")
if [ "$last" != "$revision $hash" ]; then
  echo "revisions.txt ends in '$last', but kResultsRevision and the" \
       "goldens give '$revision $hash': bump kResultsRevision and" \
       "append its line" >&2
  exit 1
fi
echo "golden revision $revision: OK"

for mode in default window0; do
  if [ "$mode" = window0 ]; then
    mode_flag="--scenario.battery-window=0"
    suffix="_window0"
  else
    mode_flag=""
    suffix=""
  fi

  # 1. Table 2 smoke cell, fresh run.
  "$table2" --sets 2 --jobs 2 $mode_flag --csv "$work/table2_$mode.csv" \
      > /dev/null
  cmp "$golden/table2_smoke$suffix.csv" "$work/table2_$mode.csv"

  # 2. Table 2 on idle-heavy: the stochastic battery kernel.
  "$table2" --scenario idle-heavy --sets 1 --jobs 2 $mode_flag \
      --csv "$work/idle_stochastic_$mode.csv" > /dev/null
  cmp "$golden/idle_stochastic_smoke$suffix.csv" \
      "$work/idle_stochastic_$mode.csv"

  # 3. Table 2 on sensor-node: the diffusion battery kernel.
  "$table2" --scenario sensor-node --sets 1 --jobs 2 $mode_flag \
      --csv "$work/sensor_node_$mode.csv" > /dev/null
  cmp "$golden/sensor_node_smoke$suffix.csv" "$work/sensor_node_$mode.csv"

  # 4. arrival_stress smoke cell through the campaign path: a run into
  #    a cache dir, then a merge from it — the merged bytes must equal
  #    the golden fresh run's.
  flags="--sets 1 --scenario.horizon 600 $mode_flag"
  "$arrival" $flags --jobs 2 --cache "$work/cache_$mode" > /dev/null
  "$arrival" $flags --merge --cache "$work/cache_$mode" \
      --csv "$work/arrival_$mode.csv" > /dev/null
  cmp "$golden/arrival_stress_smoke$suffix.csv" "$work/arrival_$mode.csv"

  echo "golden outputs ($mode): OK"
done

"$fig6" --sets 2 --jobs 2 --csv "$work/fig6.csv" > /dev/null
cmp "$golden/fig6_smoke.csv" "$work/fig6.csv"
echo "golden outputs (fig6, no battery): OK"
