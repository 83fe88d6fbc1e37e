#!/usr/bin/env bash
# Campaign-store acceptance smoke (ctest: campaign_shard_merge_resume,
# arrival_stress_shard_merge_resume, arrival_stress_store_backends,
# scenario_gallery_store_backends).
#
# Against one driver this verifies, byte for byte via cmp, that every
# way of filling the JSONL campaign store folds to the bytes of a
# storeless --jobs 4 run:
#
#   1. stored:  a --jobs 2 run writing through --cache; --progress
#               heartbeats on stderr and never touches stdout;
#   2. merge:   --merge from that store alone, executing nothing;
#   3. resume:  the store cut to the first half of its rows (an
#               interrupted run), resumed with the "jobs stored,
#               executing" note;
#   4. stale:   a --seed 7 run against the seed-6 store ignores it (its
#               fingerprint differs) and equals its own storeless run,
#               which must differ from seed 6's or the check is vacuous;
#   5. kill:    a campaign SIGKILLed mid-run resumes from whatever the
#               store committed;
#   6. merge:   --merge over the post-kill store (rows of the killed and
#               the resuming run, possibly a torn line).
#
# Usage: campaign_store_smoke.sh /path/to/driver [driver flags...]
# Extra arguments replace the default small-run flags (which fit
# fig6_ordering_schemes), e.g. arrival_stress --sets 1
# --scenario.horizon 600.

set -euo pipefail

bin="$1"
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

if [ "$#" -gt 0 ]; then
  small="$*"
else
  small="--sets 2 --max-graphs 4 --scenario.horizon 10"
fi

run() { "$bin" $small "$@" > /dev/null; }

run --seed 6 --jobs 4 --csv "$work/fresh.csv"

# 1. Stored run.
run --seed 6 --jobs 2 --cache "$work/cache" --progress \
    --csv "$work/stored.csv" 2> "$work/progress.log"
cmp "$work/fresh.csv" "$work/stored.csv"
grep -q "jobs" "$work/progress.log"

# 2. Merge.
run --seed 6 --merge --cache "$work/cache" --csv "$work/merged.csv"
cmp "$work/fresh.csv" "$work/merged.csv"

# 3. Resume from the first half of the stored rows. A store is one
#    file, so the cut store is that file's first half.
mkdir "$work/resume"
store=("$work/cache"/*.jsonl)
if [ "${#store[@]}" -ne 1 ]; then
  echo "the store holds ${#store[@]} files, want 1" >&2
  exit 1
fi
lines=$(wc -l < "$store")
head -n $((lines / 2)) "$store" > "$work/resume/$(basename "$store")"
run --seed 6 --jobs 4 --cache "$work/resume" --progress \
    --csv "$work/resumed.csv" 2> "$work/resume.log"
cmp "$work/fresh.csv" "$work/resumed.csv"
grep -q "jobs stored, executing" "$work/resume.log"

# 4. Stale fingerprint: the seed-6 store must not serve a seed-7 sweep.
run --seed 7 --jobs 4 --csv "$work/fresh7.csv"
run --seed 7 --jobs 4 --cache "$work/resume" --csv "$work/resumed7.csv"
cmp "$work/fresh7.csv" "$work/resumed7.csv"
if cmp -s "$work/fresh.csv" "$work/fresh7.csv"; then
  echo "seed 6 and seed 7 produced identical output; smoke is vacuous" >&2
  exit 1
fi

# 5. Kill mid-campaign, then resume. The kill races the run: if the
#    campaign finished before the signal landed, the resume degrades
#    into a pure store replay, which the cmp still validates.
"$bin" $small --seed 6 --jobs 1 --cache "$work/kill" > /dev/null 2>&1 &
victim=$!
sleep 0.2
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
run --seed 6 --jobs 4 --cache "$work/kill" --csv "$work/killed.csv"
cmp "$work/fresh.csv" "$work/killed.csv"

# 6. Merge the post-kill store.
run --seed 6 --merge --cache "$work/kill" --csv "$work/kill_merged.csv"
cmp "$work/fresh.csv" "$work/kill_merged.csv"

echo "campaign store smoke: OK"
