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

table2=""
arrival=""
scenario_drivers=0
for bin in "$@"; do
  case "$(basename "$bin")" in
    table2_battery_lifetime) table2="$bin" ;;
    arrival_stress) arrival="$bin" ;;
  esac
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

if [[ -z "$table2" || -z "$arrival" ]]; then
  echo "cli errors smoke: table2_battery_lifetime or arrival_stress missing" >&2
  exit 1
fi
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

if (( failures > 0 )); then
  echo "cli errors smoke: $failures failing case(s)" >&2
  exit 1
fi
echo "cli errors smoke: OK ($# binaries, $scenario_drivers scenario drivers)"
