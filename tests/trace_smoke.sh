#!/usr/bin/env bash
# Chrome-trace smoke (ctest: trace_smoke).
#
# Pins the two end-to-end contracts of the --trace-out flag:
#
#   1. Instrumentation only: a campaign run with --trace-out produces
#      byte-identical CSV output to the same run without it (cmp), and
#      the flag stays out of the cache-keying config summary.
#   2. The emitted file is real trace-event JSON: `python3 -m json.tool`
#      parses both the campaign trace (runner-level: per-job spans on
#      pid 3) and the direct-mode sim trace (releases, exec slices),
#      and the documents carry the expected structure.
#
# The in-process format contracts (per-track monotone ts, escaping,
# release/completion counts) live in tests/test_obs.cpp; this script
# checks the CLI plumbing end to end.
#
# Usage: trace_smoke.sh /path/to/table2_battery_lifetime /path/to/perf_hotpath

set -euo pipefail

table2="$1"
perf="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

flags="--sets 1 --jobs 2"

# 1. Byte-identity: tracing a campaign must not move a single byte of
#    its results.
"$table2" $flags --csv "$work/plain.csv" > /dev/null
"$table2" $flags --csv "$work/traced.csv" \
    --trace-out "$work/campaign.json" > /dev/null
cmp "$work/plain.csv" "$work/traced.csv"
echo "trace smoke (campaign byte-identity): OK"

test -s "$work/campaign.json"
grep -q '"traceEvents"' "$work/campaign.json"
grep -q 'process_name' "$work/campaign.json"
# Per-job spans on the campaign track (pid 3) — the runner's part of
# the trace.
grep -q '"ph": "X", "pid": 3' "$work/campaign.json"

# 2. Direct-mode sim trace from the perf harness (one extra rep of a
#    single small cell: a few MB of trace, thousands of releases).
"$perf" --sets 1 --scenarios sporadic-sensor --schemes EDF \
    --batteries kibam --trace-out "$work/direct.json" > /dev/null
test -s "$work/direct.json"
grep -q '"traceEvents"' "$work/direct.json"
grep -q '"release"' "$work/direct.json"

if ! command -v python3 > /dev/null; then
  echo "trace smoke (JSON validity): SKIPPED (python3 not found)"
  exit 0
fi
python3 -m json.tool "$work/campaign.json" > /dev/null
python3 -m json.tool "$work/direct.json" > /dev/null
echo "trace smoke (JSON validity): OK"
