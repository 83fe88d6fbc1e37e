#!/usr/bin/env bash
# Campaign-store acceptance smoke (ctest: *_store_backends).
#
# Against a representative engine driver this verifies, byte-for-byte
# via cmp, that the JSONL campaign store honours its contract:
#
#   1. fresh run:     a run writing through --cache equals a storeless
#                     run;
#   2. kill+resume:   a campaign killed mid-run (SIGKILL) resumes from
#                     whatever the store committed and still folds to
#                     the fresh bytes;
#   3. merge:         --merge over the post-kill store (rows of the
#                     killed and the resuming run, possibly a torn line)
#                     folds to the fresh bytes without executing a job.
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

# 2. Kill mid-campaign, then resume. The kill races the run — if the
#    campaign finished before the signal landed, the resume degrades
#    into a pure store replay, which the cmp still validates.
"$bin" $small --seed 6 --jobs 1 --cache "$work/kill" > /dev/null 2>&1 &
victim=$!
sleep 0.2
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
run --jobs 4 --cache "$work/kill" --csv "$work/resumed.csv"
cmp "$work/fresh.csv" "$work/resumed.csv"

# 3. Merge the post-kill store.
run --merge --cache "$work/kill" --csv "$work/merged.csv"
cmp "$work/fresh.csv" "$work/merged.csv"

echo "store smoke: OK"
