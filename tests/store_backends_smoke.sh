#!/usr/bin/env bash
# Campaign-store acceptance smoke (ctest: *_store_backends).
#
# Against a representative engine driver this verifies, byte-for-byte
# via cmp, that the JSONL campaign store honours its contract:
#
#   1. fresh run:       a run writing through --cache equals a storeless
#                       run;
#   2. 3-way shard+merge: three --shard i/3 writers into one store dir,
#                       then --merge, equals the fresh run;
#   3. kill+resume:     a campaign killed mid-run (SIGKILL) resumes from
#                       whatever the store committed and still folds to
#                       the fresh bytes;
#   4. compaction:      --cache-compact over the messy post-kill store
#                       leaves the merge output untouched.
#
# Usage: store_backends_smoke.sh /path/to/driver [driver flags...]

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

run() { "$bin" $small --seed 6 "$@" > /dev/null; }

# Storeless reference.
run --jobs 4 --csv "$work/fresh.csv"

# 1. Fresh run writing through the store equals the storeless run.
run --jobs 4 --cache "$work/fresh" --csv "$work/stored.csv"
cmp "$work/fresh.csv" "$work/stored.csv"

# 2. Three shards + merge.
for s in 0 1 2; do
  run --jobs 2 --shard $s/3 --cache "$work/shards"
done
run --merge --cache "$work/shards" --csv "$work/merged.csv"
cmp "$work/fresh.csv" "$work/merged.csv"

# 3. Kill mid-campaign, then resume. The kill races the run — if the
#    campaign finished before the signal landed, the resume degrades
#    into a pure store replay, which the cmp still validates.
"$bin" $small --seed 6 --jobs 1 --cache "$work/kill" > /dev/null 2>&1 &
victim=$!
sleep 0.2
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
run --jobs 4 --cache "$work/kill" --csv "$work/resumed.csv"
cmp "$work/fresh.csv" "$work/resumed.csv"

# 4. Compact the post-kill store (dupes, partial files) and re-merge.
run --merge --cache-compact --cache "$work/kill" --csv "$work/compacted.csv"
cmp "$work/fresh.csv" "$work/compacted.csv"

echo "store smoke: OK"
