#!/usr/bin/env bash
# Thread-count determinism smoke (ctest: jobs_determinism_smoke): the
# same sweep run with --jobs 1, 3 and 4 must write byte-identical CSVs,
# for the Table 2 driver and the arrival-process campaign. The calling
# thread is worker 0, so --jobs 3 is the caller plus two spawned workers.
#
# Usage: jobs_determinism_smoke.sh /path/to/table2 /path/to/arrival_stress

set -euo pipefail

table2="$1"
arrival="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for jobs in 1 3 4; do
  "$table2" --sets 4 --jobs "$jobs" --csv "$work/table2_j$jobs.csv" \
      > /dev/null
  "$arrival" --sets 1 --scenario.horizon 600 --jobs "$jobs" \
      --csv "$work/arrival_j$jobs.csv" > /dev/null
done
for jobs in 3 4; do
  cmp "$work/table2_j1.csv" "$work/table2_j$jobs.csv"
  cmp "$work/arrival_j1.csv" "$work/arrival_j$jobs.csv"
done
echo "jobs determinism (jobs=1 vs jobs=3, 4): OK"
