#!/usr/bin/env bash
# Interleaved A/B comparison of two perf_hotpath binaries, or of two
# perfbench binaries.
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
#
#   bench/ab_compare.sh --perfbench BASE_BIN CAND_BIN --workload NAME
#                       [--pairs N] [--seconds S] [--seed0 K]
#
#   Perfbench mode: end-to-end claims. Runs N pairs (default 10) of
#   `perfbench --trace 0` runs of S seconds each (default 30); pair i
#   uses seed K+i (default K = 0) on both sides, and the side that runs
#   first alternates from pair to pair. Prints each pair's wall_s and
#   whether the two sides' result digests agree, then per end-to-end
#   metric (all lower-is-better) each side's median and quartiles, the
#   median change, and the pairs the candidate won. `claim` is yes when
#   the candidate won at least 9 in 10 pairs and its median is lower by
#   more than the base's interquartile range. Exit 1 when a run reports
#   an incorrect result, 2 when one fails to run.
set -u

usage() { sed -n '2,45p' "$0"; exit 2; }

# Quartiles (linear interpolation between order statistics) and median
# of whitespace-separated numbers on stdin: prints "q1 median q3".
quartiles() {
  tr ' ' '\n' | awk 'NF { v[++n] = $1 + 0 }
    function q(p,   h, i) {
      h = (n - 1) * p + 1; i = int(h)
      return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
    }
    END {
      for (i = 2; i <= n; ++i)            # insertion sort, tiny n
        for (j = i; j > 1 && v[j] < v[j - 1]; --j) {
          t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
        }
      printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75)
    }'
}

perfbench_mode() {
  [ $# -ge 2 ] || usage
  local base_bin=$1 cand_bin=$2
  shift 2
  local workload="" pairs=10 seconds=30 seed0=0
  while [ $# -gt 0 ]; do
    case "$1" in
      --workload) workload=$2; shift 2 ;;
      --pairs) pairs=$2; shift 2 ;;
      --seconds) seconds=$2; shift 2 ;;
      --seed0) seed0=$2; shift 2 ;;
      *) echo "ab_compare: unknown option '$1'" >&2; usage ;;
    esac
  done
  [ -n "$workload" ] || usage
  for bin in "$base_bin" "$cand_bin"; do
    if [ ! -x "$bin" ]; then
      echo "ab_compare: '$bin' is not an executable" >&2
      exit 2
    fi
  done

  local work
  work=$(mktemp -d "${TMPDIR:-/tmp}/ab_compare.XXXXXX")
  trap 'rm -rf "$work"' EXIT

  echo "perfbench A/B: $workload, $pairs pairs x $seconds s, seeds" \
       "$((seed0 + 1))..$((seed0 + pairs))"
  printf "%-5s %-6s %-6s %12s %12s  %s\n" pair seed first base_wall_s \
         cand_wall_s digests
  local incorrect=0 i side bin log order seed
  for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i))
    order="base cand"
    [ $((i % 2)) -eq 0 ] && order="cand base"
    for side in $order; do
      bin=$base_bin
      [ "$side" = cand ] && bin=$cand_bin
      log="$work/${side}_${i}.log"
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace 0 --scratch "$work/scratch_$side" >"$log" 2>&1
      case $? in
        0) ;;
        1) incorrect=1 ;;
        *) echo "ab_compare: $side pair $i failed:" >&2
           cat "$log" >&2
           exit 2 ;;
      esac
      # The last line is one JSON object; flatten its metrics to
      # "name value" rows.
      tail -n 1 "$log" |
        grep -o '"[a-z0-9_]*": {"value": [-0-9.eE+]*' |
        sed 's/"\([a-z0-9_]*\)": {"value": /\1 /' >"$work/${side}_${i}.m"
      sed -n 's/^digest \([0-9a-f]*\):.*/\1/p' "$log" >"$work/${side}_${i}.d"
    done
    printf "%-5s %-6s %-6s %12.4g %12.4g  %s\n" "$i" "$seed" "${order%% *}" \
      "$(awk '$1 == "wall_s" { print $2 }' "$work/base_${i}.m")" \
      "$(awk '$1 == "wall_s" { print $2 }' "$work/cand_${i}.m")" \
      "$(cmp -s "$work/base_${i}.d" "$work/cand_${i}.d" && echo same ||
         echo DIFFER)"
  done

  echo
  printf "%-12s %-30s %-30s %8s %6s %5s\n" metric "base median [q1, q3]" \
         "cand median [q1, q3]" change won claim
  local metric base_q cand_q won
  for metric in $(awk '{ print $1 }' "$work/base_1.m"); do
    base_q=$(for i in $(seq 1 "$pairs"); do
               awk -v m="$metric" '$1 == m { print $2 }' "$work/base_${i}.m"
             done | quartiles)
    cand_q=$(for i in $(seq 1 "$pairs"); do
               awk -v m="$metric" '$1 == m { print $2 }' "$work/cand_${i}.m"
             done | quartiles)
    won=0
    for i in $(seq 1 "$pairs"); do
      won=$((won + $(awk -v m="$metric" '$1 == m { v[FILENAME] = $2 }
             END { print (v[ARGV[2]] + 0 < v[ARGV[1]] + 0) ? 1 : 0 }' \
             "$work/base_${i}.m" "$work/cand_${i}.m")))
    done
    echo "$metric $base_q $cand_q $won $pairs" | awk '{
      change = $3 != 0 ? 100 * ($6 - $3) / $3 : 0
      claim = ($8 * 10 >= $9 * 9 && $3 - $6 > $4 - $2) ? "yes" : "no"
      printf "%-12s %-30s %-30s %+7.1f%% %6s %5s\n", $1,
             sprintf("%.4g [%.4g, %.4g]", $3, $2, $4),
             sprintf("%.4g [%.4g, %.4g]", $6, $5, $7),
             change, $8 "/" $9, claim
    }'
  done
  if [ "$incorrect" -ne 0 ]; then
    echo "ab_compare: a run reported an incorrect result" >&2
    exit 1
  fi
  exit 0
}

if [ "${1:-}" = --perfbench ]; then
  shift
  perfbench_mode "$@"
fi

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
