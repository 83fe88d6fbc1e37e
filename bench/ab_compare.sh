#!/usr/bin/env bash
# Interleaved A/B comparison of two perf_hotpath binaries.
#
# Dev boxes swing tens of percent run-to-run (ROADMAP, "measurement
# noise"), so back-to-back whole-suite runs of base-then-candidate
# confound the code delta with machine drift. This driver interleaves
# instead: rep 1 of BASE, rep 1 of CAND, rep 2 of BASE, ... so both
# sides sample the same noise environment, then scores each cell
# best-of-N (the min-time / max-rate rep is the least-perturbed
# measurement of the code) and reports the median alongside it as the
# spread check — a best far above the median means the box was noisy
# and the run should be repeated.
#
#   bench/ab_compare.sh BASE_BIN CAND_BIN [--reps N] [-- perf args...]
#
#   BASE_BIN / CAND_BIN  two perf_hotpath binaries (may be the same
#                        file: self-compare, speedups should be ~1.0x)
#   --reps N             interleaved repetitions per side (default 5)
#   -- perf args...      forwarded to BOTH binaries verbatim, e.g.
#                        -- --sets 1 --scenarios paper-table2 \
#                           --schemes EDF,laEDF,BAS-2
#
# Every invocation runs with --sets as given (default 1 rep inside the
# binary) and a fixed --seed, so each (side, rep) times the identical
# workload; the per-cell key is (scenario, scheme, battery).
# Exit 1 if no cell could be parsed from both sides.
set -u

usage() { sed -n '2,30p' "$0"; exit 2; }

[ $# -ge 2 ] || usage
BASE_BIN=$1
CAND_BIN=$2
shift 2

REPS=5
EXTRA=()
while [ $# -gt 0 ]; do
  case "$1" in
    --reps) REPS=$2; shift 2 ;;
    --) shift; EXTRA=("$@"); break ;;
    *) echo "ab_compare: unknown option '$1'" >&2; usage ;;
  esac
done

for bin in "$BASE_BIN" "$CAND_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "ab_compare: '$bin' is not an executable" >&2
    exit 2
  fi
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab_compare.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Interleave: rep r of base, then rep r of cand. Each run writes its
# bas-perf JSON into the scratch dir; stdout is kept for diagnosis.
for r in $(seq 1 "$REPS"); do
  for side in base cand; do
    bin=$BASE_BIN
    [ "$side" = cand ] && bin=$CAND_BIN
    json="$WORK/${side}_${r}.json"
    if ! "$bin" --json "$json" "${EXTRA[@]}" \
        >"$WORK/${side}_${r}.log" 2>&1; then
      echo "ab_compare: $side rep $r failed (log: see below)" >&2
      cat "$WORK/${side}_${r}.log" >&2
      exit 2
    fi
    echo "  ran $side rep $r/$REPS" >&2
  done
done

# Flat bas-perf cells, one per line: pull (scenario, scheme, battery,
# steps_per_sec) into "side|key value" rows for awk.
extract() { # $1=side $2=json
  sed -n 's/.*"scenario": *"\([^"]*\)".*"scheme": *"\([^"]*\)".*"battery": *"\([^"]*\)".*"steps_per_sec": *\([0-9.eE+-]*\).*/'"$1"'|\1\/\2\/\3 \4/p' "$2"
}

ROWS="$WORK/rows.txt"
: >"$ROWS"
for r in $(seq 1 "$REPS"); do
  extract base "$WORK/base_${r}.json" >>"$ROWS"
  extract cand "$WORK/cand_${r}.json" >>"$ROWS"
done

# Per (side, cell): best = max steps/sec, median over the reps. Then
# per cell: speedup = cand_best / base_best.
awk -F'[| ]' '
  { vals[$1 "|" $2] = vals[$1 "|" $2] " " $3; cells[$2] = 1 }
  function best(list,   n, a, i, m) {
    n = split(list, a, " "); m = 0
    for (i = 1; i <= n; ++i) if (a[i] + 0 > m) m = a[i] + 0
    return m
  }
  function median(list,   n, a, i, j, t) {
    n = split(list, a, " ")
    for (i = 1; i <= n; ++i)            # insertion sort, tiny n
      for (j = i; j > 1 && a[j] + 0 < a[j-1] + 0; --j) {
        t = a[j]; a[j] = a[j-1]; a[j-1] = t
      }
    if (n % 2) return a[(n + 1) / 2] + 0
    return (a[n / 2] + a[n / 2 + 1]) / 2.0
  }
  END {
    printf "%-44s %12s %12s %8s %14s\n", "cell", "base_best", "cand_best", "speedup", "median_spread"
    n_cells = 0
    for (c in cells) {
      bb = best(vals["base|" c]); cb = best(vals["cand|" c])
      if (bb <= 0 || cb <= 0) continue
      bm = median(vals["base|" c]); cm = median(vals["cand|" c])
      ++n_cells; sum += cb / bb
      # median_spread: how far best sits above median on each side —
      # large values mean a noisy box, distrust the speedup.
      printf "%-44s %12.4g %12.4g %7.3fx  %5.1f%%/%5.1f%%\n", c, bb, cb, \
             (cb / bb), (bm > 0 ? 100 * (bb - bm) / bm : 0), \
             (cm > 0 ? 100 * (cb - cm) / cm : 0)
    }
    if (n_cells == 0) {
      print "ab_compare: no cells parsed from both sides" > "/dev/stderr"
      exit 1
    }
    printf "%-44s %12s %12s %7.3fx\n", "geomean-ish (arith mean of ratios)", "", "", sum / n_cells
  }
' "$ROWS"
