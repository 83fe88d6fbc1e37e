#!/usr/bin/env bash
# Exact work-counter gate (ctest: perf_counter_gate).
#
#   1. `perf_hotpath --csv` equals the committed baseline byte for byte
#      (cmp). On a mismatch it prints the diff and the regeneration
#      hint.
#   2. The CSV reads no clock: no column is a timing gauge (`elapsed`,
#      `_per_sec`), every `*_count` and `*_sum` field is a plain
#      integer, and there are 18 data rows.
#   3. The compare fails, with the hint, against a copy of the baseline
#      whose first cell has its `steps_sum` raised by 1.
#
# Usage: perf_gate_smoke.sh /path/to/perf_hotpath /path/to/perf_baseline.csv

set -euo pipefail

perf="$1"
baseline="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# compare BASELINE RUN: cmp, or the diff, the hint and a failure.
compare() {
  if cmp -s "$1" "$2"; then
    return 0
  fi
  diff "$1" "$2" || true
  echo "perf gate: the work counters changed; if intended, regenerate the" \
       "baseline in the same change:" \
       "cd build && ./perf_hotpath --csv ../bench/perf_baseline.csv" >&2
  return 1
}

# 1. The committed baseline.
"$perf" --csv "$work/now.csv" > "$work/run.log"
compare "$baseline" "$work/now.csv"
echo "perf gate smoke (committed baseline): OK"

# 2. Integer counters only, and no timing gauge.
awk -F, '
  NR == 1 {
    for (i = 1; i <= NF; ++i) {
      column[i] = $i
      if ($i ~ /elapsed|_per_sec/) { print "gauge column " $i; bad = 1 }
    }
    next
  }
  {
    ++rows
    for (i = 1; i <= NF; ++i) {
      if (column[i] ~ /_(count|sum)$/ && $i !~ /^[0-9]+$/) {
        print "row " NR ": " column[i] " = " $i " is not an integer"; bad = 1
      }
    }
  }
  END {
    if (rows != 18) { print rows " data rows, not 18"; bad = 1 }
    exit bad
  }' "$work/now.csv" || { echo "perf gate smoke: CSV columns" >&2; exit 1; }
echo "perf gate smoke (integer counters, no clock): OK"

# 3. One counter off by one.
col=$(head -n 1 "$baseline" | tr , '\n' | grep -nx steps_sum | cut -d: -f1)
steps=$(sed -n 2p "$baseline" | cut -d, -f"$col")
awk -F, -v OFS=, -v col="$col" -v raised="$((steps + 1))" \
    'NR == 2 { $col = raised } { print }' "$baseline" > "$work/raised.csv"
if compare "$work/raised.csv" "$work/now.csv" > "$work/raised.log" 2>&1; then
  echo "perf gate smoke: a raised steps_sum passed the compare" >&2
  exit 1
fi
if ! grep -qF "./perf_hotpath --csv ../bench/perf_baseline.csv" \
    "$work/raised.log"; then
  cat "$work/raised.log"
  echo "perf gate smoke: no regeneration hint" >&2
  exit 1
fi
echo "perf gate smoke (changed counter fails): OK"
