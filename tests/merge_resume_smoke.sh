#!/usr/bin/env bash
# Campaign-layer acceptance smoke (ctest: campaign_shard_merge_resume,
# arrival_stress_shard_merge_resume).
#
# Against a representative engine driver (fig6_ordering_schemes by
# default) this verifies, byte-for-byte via cmp:
#
#   1. merge:        a full run through --cache, then --merge from that
#                    store alone, equals a fresh --jobs 4 run;
#   2. resume:       a store cut to the first half of its lines
#                    (standing in for an interrupted run) plus a resumed
#                    full run equals the fresh run;
#   3. stale cache:  a run with a different --seed against the old cache
#                    ignores it (fingerprint mismatch) and still equals
#                    its own fresh run.
#
# Usage: merge_resume_smoke.sh /path/to/driver [driver flags...]
# Extra arguments replace the default small-run flags (which fit
# fig6_ordering_schemes); pass driver-appropriate ones for other
# binaries, e.g. arrival_stress --sets 2 --scenario.horizon 900.

set -euo pipefail

bin="$1"
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

if [ "$#" -gt 0 ]; then
  small="$*"
else
  small="--sets 2 --max-graphs 4 --horizon 10"
fi

# 1. Fresh storeless reference, then a run through the store and a merge
#    that executes nothing.
"$bin" $small --seed 6 --jobs 4 --csv "$work/fresh.csv" > /dev/null
"$bin" $small --seed 6 --jobs 2 --cache "$work/cache" --progress > /dev/null 2> "$work/progress.log"
"$bin" $small --seed 6 --merge --cache "$work/cache" --csv "$work/merged.csv" > /dev/null
cmp "$work/fresh.csv" "$work/merged.csv"

# The progress reporter heartbeats on stderr without touching stdout.
grep -q "jobs" "$work/progress.log"

# 2. Interrupted-then-resumed: keep the first half of the stored rows,
#    then let a full run resume the rest from them.
mkdir "$work/resume"
for file in "$work/cache"/*.jsonl; do
  lines=$(wc -l < "$file")
  head -n $((lines / 2)) "$file" > "$work/resume/$(basename "$file")"
done
"$bin" $small --seed 6 --jobs 4 --cache "$work/resume" --progress --csv "$work/resumed.csv" > /dev/null 2> "$work/resume.log"
cmp "$work/fresh.csv" "$work/resumed.csv"
grep -q "jobs stored, executing" "$work/resume.log"

# 3. Stale fingerprint: the seed-6 cache must not serve a seed-7 sweep.
"$bin" $small --seed 7 --jobs 4 --csv "$work/fresh7.csv" > /dev/null
"$bin" $small --seed 7 --jobs 4 --cache "$work/resume" --csv "$work/resumed7.csv" > /dev/null
cmp "$work/fresh7.csv" "$work/resumed7.csv"
if cmp -s "$work/fresh.csv" "$work/fresh7.csv"; then
  echo "seed 6 and seed 7 produced identical output; smoke is vacuous" >&2
  exit 1
fi

echo "campaign smoke: OK"
