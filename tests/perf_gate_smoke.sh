#!/usr/bin/env bash
# Exact work-counter gate (ctest: perf_counter_gate).
#
#   1. perf_hotpath passes against the committed baseline: every run
#      cell is in the file and every counter equals it. Each cell of
#      the JSON it writes holds its three labels and 12 counters, each
#      a plain integer, and nothing else: no timing gauge.
#   2. The gate fails on each doctored copy of the baseline, run on the
#      one cell paper-table2 x EDF x kibam so the checks stay fast:
#        - its `steps` raised by 1: exit 1, and the message names the
#          cell, the counter, both values and the regeneration hint;
#        - an extra counter key the binary does not report: exit 1,
#          naming the cell and the key;
#        - the cell deleted: exit 1;
#        - the schema set back to bas-perf/8: the schema message.
#
# Usage: perf_gate_smoke.sh /path/to/perf_hotpath /path/to/perf_baseline.json

set -euo pipefail

perf="$1"
baseline="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Runs perf_hotpath with the given args; on an exit code other than
# $1 prints the log and fails.
expect_exit() {
  local want="$1" log="$2"
  shift 2
  local got=0
  "$perf" "$@" > "$log" 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    cat "$log"
    echo "perf gate smoke: expected exit $want, got $got: $*" >&2
    exit 1
  fi
}

expect_line() {
  local log="$1" text="$2"
  if ! grep -qF -- "$text" "$log"; then
    cat "$log"
    echo "perf gate smoke: missing '$text'" >&2
    exit 1
  fi
}

# 1. The committed baseline.
expect_exit 0 "$work/smoke.log" --write-baseline "$work/smoke.json" \
    --baseline "$baseline"
expect_line "$work/smoke.log" "baseline gate passed"
echo "perf gate smoke (committed baseline): OK"

# Each cell: the three labels, then 12 integer counters (no "1.5e+06",
# no "2.0") and no other key.
grep -F '"scenario": ' "$work/smoke.json" | awk '
  {
    cell = $0; labels = 0; counters = 0
    while (match(cell, /"[a-z_0-9]+": [^,}]+/)) {
      pair = substr(cell, RSTART, RLENGTH)
      cell = substr(cell, RSTART + RLENGTH)
      key = pair; sub(/": .*/, "", key); sub(/^"/, "", key)
      value = pair; sub(/^[^:]*: /, "", value)
      if (key ~ /^(scenario|scheme|battery)$/) {
        ++labels
        continue
      }
      ++counters
      if (value !~ /^[0-9]+$/) {
        print "key " key " is not an integer counter: " value; bad = 1
      }
      if (key ~ /(^elapsed|_per_sec$)/) {
        print "gauge key " key; bad = 1
      }
    }
    if (labels != 3 || counters != 12) {
      print labels " labels and " counters " counters, not 3 and 12: " $0
      bad = 1
    }
  }
  END { exit bad }' || { echo "perf gate smoke: cell keys" >&2; exit 1; }
echo "perf gate smoke (cells hold labels and integer counters only): OK"

cell='"scenario": "paper-table2", "scheme": "EDF", "battery": "kibam"'
one=(--scenarios paper-table2 --schemes EDF --batteries kibam)
expect_exit 0 "$work/one.log" "${one[@]}" --baseline "$baseline"

# 2a. One counter off by one.
steps=$(grep -F "$cell" "$baseline" | sed -n 's/.*"steps": \([0-9]*\),.*/\1/p')
[ -n "$steps" ]
awk -v cell="$cell" -v old="\"steps\": $steps," \
    -v new="\"steps\": $((steps + 1))," \
    'index($0, cell) { sub(old, new) } { print }' \
    "$baseline" > "$work/raised.json"
expect_exit 1 "$work/raised.log" "${one[@]}" --baseline "$work/raised.json"
expect_line "$work/raised.log" \
    "cell paper-table2/EDF/kibam counter steps = $steps, baseline $((steps + 1))"
expect_line "$work/raised.log" "regenerate with --write-baseline"
echo "perf gate smoke (changed counter fails): OK"

# 2b. A counter key in the baseline that the binary does not report.
awk -v cell="$cell" -v extra='"k_retired": 0, "sims": ' \
    'index($0, cell) { sub(/"sims": /, extra) } { print }' \
    "$baseline" > "$work/extra.json"
expect_exit 1 "$work/extra.log" "${one[@]}" --baseline "$work/extra.json"
expect_line "$work/extra.log" \
    "cell paper-table2/EDF/kibam counter k_retired is in the baseline"
echo "perf gate smoke (unreported baseline counter fails): OK"

# 2c. The run's cell missing from the baseline.
grep -vF "$cell" "$baseline" > "$work/deleted.json"
expect_exit 1 "$work/deleted.log" "${one[@]}" --baseline "$work/deleted.json"
expect_line "$work/deleted.log" \
    "cell paper-table2/EDF/kibam is missing from the baseline"
echo "perf gate smoke (missing cell fails): OK"

# 2d. An old schema.
sed 's|"bas-perf/9"|"bas-perf/8"|' "$baseline" > "$work/old.json"
expect_exit 2 "$work/old.log" "${one[@]}" --baseline "$work/old.json"
expect_line "$work/old.log" "has schema 'bas-perf/8'"
expect_line "$work/old.log" "regenerate with --write-baseline"
echo "perf gate smoke (old schema fails): OK"
