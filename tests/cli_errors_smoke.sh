#!/usr/bin/env bash
# CLI errors smoke (ctest: cli_errors_smoke): every bench and example
# binary keeps the exit-code contract of exp::run_main — 0 for a
# successful run or --help, 2 for a rejected input with an "error:"
# line on stderr, and never a signal (an exit >= 128 is a crash).
#
#   every binary       --help (options on stdout, exit 0), --bogus (exit 2)
#   scenario drivers   --sets abc, --scenario nope,
#   (--help lists      --scenario.utilization=nan: exit 2 each
#   --list-scenarios)
#   table2_battery_lifetime
#                      --sets 0, --merge, --scenario.utilization=5: exit 2;
#                      a run whose BAS-2 gain is negative exits 0 and
#                      prints no "+-"
#   arrival_stress     an unreadable --scenario.arrival.trace: exit 2
#   removed options    --full on the five drivers that had it (the count
#                      is --sets or --dags) and fig6's --horizon (it is
#                      --scenario.horizon): exit 2 as unknown options
#   numeric options    fig6_ordering_schemes --scenario.horizon=-1,
#                      battery_explorer --pulse nan and --cycles -5,
#                      table1_single_dag --min-tasks 0,
#                      rate_capacity_curve --probe -1: exit 2 each;
#                      an integer outside int (perf_hotpath --sets,
#                      battery_explorer --cycles, table1_single_dag
#                      --min-tasks, fig6 --max-graphs): exit 2, never
#                      wrapped into a small count
#   --csv suffix       rate_capacity_curve --csv out.json writes CSV
#   output paths       a --csv or --trace-out under a missing directory,
#                      or naming an existing directory (perf_hotpath's
#                      --csv too): exit 2, before any job runs
#
# Usage: cli_errors_smoke.sh BINARY...
# CMake passes every binary bas_add_binaries builds, so a new main is
# covered without editing this script.

set -uo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

# expect WANT BINARY ARGS...: runs the binary, stdout to $work/out and
# stderr to $work/err, and checks its exit code (and, for 2, the
# "error:" line).
expect() {
  local want="$1"
  shift
  local got=0
  "$@" > "$work/out" 2> "$work/err" || got=$?
  local why=""
  if (( got >= 128 )); then
    why="killed by a signal (exit $got)"
  elif (( got != want )); then
    why="exit $got, want $want"
  elif (( want == 2 )) && ! grep -q '^error: ' "$work/err"; then
    why="no 'error:' line on stderr"
  fi
  if [[ -n "$why" ]]; then
    echo "cli errors smoke: $why: $*" >&2
    head -n 5 "$work/err" | sed 's/^/  /' >&2
    failures=$((failures + 1))
    return 1
  fi
}

declare -A named
scenario_drivers=0
for bin in "$@"; do
  named[$(basename "$bin")]="$bin"
  if expect 0 "$bin" --help && ! grep -q -- '--' "$work/out"; then
    echo "cli errors smoke: --help printed no options: $bin" >&2
    failures=$((failures + 1))
  fi
  scenario_driver=0
  grep -q -- '--list-scenarios' "$work/out" && scenario_driver=1
  expect 2 "$bin" --bogus
  if (( scenario_driver )); then
    scenario_drivers=$((scenario_drivers + 1))
    expect 2 "$bin" --sets abc
    expect 2 "$bin" --scenario nope
    expect 2 "$bin" --scenario.utilization=nan
  fi
done

for name in table2_battery_lifetime arrival_stress fig6_ordering_schemes \
    battery_explorer table1_single_dag rate_capacity_curve perf_hotpath \
    scenario_gallery; do
  if [[ -z "${named[$name]:-}" ]]; then
    echo "cli errors smoke: $name missing" >&2
    exit 1
  fi
done
table2="${named[table2_battery_lifetime]}"
arrival="${named[arrival_stress]}"
expect 2 "$table2" --sets 0
expect 2 "$table2" --merge
expect 2 "$table2" --scenario.utilization=5
if expect 0 "$table2" --scenario idle-heavy --scenario.battery-window=0 \
    --sets 20 && grep -qF -- '+-' "$work/out"; then
  echo "cli errors smoke: a negative gain printed as '+-':" >&2
  grep -F -- '+-' "$work/out" >&2
  failures=$((failures + 1))
fi
expect 2 "$arrival" --scenario.arrival.trace="@$work/no-such-trace.csv"
fig6="${named[fig6_ordering_schemes]}"
for name in table2_battery_lifetime table1_single_dag fig6_ordering_schemes \
    scenario_gallery arrival_stress; do
  expect 2 "${named[$name]}" --full
done
expect 2 "$fig6" --horizon 10
expect 2 "$fig6" --scenario.horizon=-1
expect 2 "${named[perf_hotpath]}" --sets 4294967297
expect 2 "${named[battery_explorer]}" --cycles 4294967297
expect 2 "${named[table1_single_dag]}" --min-tasks 4294967301
if expect 2 "$fig6" --max-graphs 3000000000 &&
    ! grep -q -- '^error: .*--max-graphs' "$work/err"; then
  echo "cli errors smoke: fig6 --max-graphs 3000000000 blamed" \
      "another option" >&2
  failures=$((failures + 1))
fi
expect 2 "${named[battery_explorer]}" --pulse nan
expect 2 "${named[battery_explorer]}" --cycles -5
expect 2 "${named[table1_single_dag]}" --min-tasks 0
expect 2 "${named[rate_capacity_curve]}" --probe -1
if expect 0 "${named[rate_capacity_curve]}" --csv "$work/out.json" &&
    ! head -n 1 "$work/out.json" | grep -q '^[a-z_]*,'; then
  echo "cli errors smoke: --csv out.json did not write a CSV header" >&2
  failures=$((failures + 1))
fi
mkdir "$work/dir.csv"
for output in "${named[rate_capacity_curve]} --csv $work/none/x.csv" \
    "$table2 --sets 2 --trace-out $work/none/t.json" \
    "${named[rate_capacity_curve]} --csv $work/dir.csv" \
    "${named[perf_hotpath]} --csv $work/dir.csv" \
    "$table2 --sets 2 --trace-out $work/dir.csv"; do
  if expect 2 $output && [[ -s "$work/out" ]]; then
    echo "cli errors smoke: ran before rejecting: $output" >&2
    failures=$((failures + 1))
  fi
done

if (( failures > 0 )); then
  echo "cli errors smoke: $failures failing case(s)" >&2
  exit 1
fi
echo "cli errors smoke: OK ($# binaries, $scenario_drivers scenario drivers)"
