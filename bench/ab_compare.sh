#!/usr/bin/env bash
# End-to-end A/B of two perfbench binaries, in alternating pairs.
#
# usage: bench/ab_compare.sh BASE CAND --workload W [--pairs N]
#                            [--seconds S] [--seed0 K]
#
#   BASE, CAND    two perfbench binaries (the same file twice is a
#                 self-compare, which wins no pairs)
#   --workload W  the perfbench workload to run (BENCHMARK.json)
#   --pairs N     pairs of runs (default 10)
#   --seconds S   seconds per run (default 30)
#   --seed0 K     pair i runs seed K+i on both sides (default 0)
#
# Each run is `perfbench --trace 0`. A machine drifts from run to run,
# so the side that runs first alternates from pair to pair. Prints each
# pair's wall_s and whether the two sides' result digests agree, then
# per end-to-end metric (all lower-is-better) each side's median and
# quartiles, the median change, and the pairs the candidate won.
# `claim` is yes when the candidate won at least 9 in 10 pairs and its
# median is lower by more than the base's interquartile range. Exit 1
# when a run reports an incorrect result, 2 on a usage error or when a
# run fails.
set -u

# Prints the comment block above to stderr and exits 2.
usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' \
      "$0" >&2
  exit 2
}

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

[ $# -ge 2 ] || usage
base_bin=$1
cand_bin=$2
shift 2
workload="" pairs=10 seconds=30 seed0=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --seed0) seed0=$2 ;;
    *) echo "ab_compare: unknown option '$1'" >&2; usage ;;
  esac
  shift 2
done
[ -n "$workload" ] || usage
case "$pairs$seed0" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
for bin in "$base_bin" "$cand_bin"; do
  if [ ! -x "$bin" ]; then
    echo "ab_compare: '$bin' is not an executable" >&2
    exit 2
  fi
done

work=$(mktemp -d "${TMPDIR:-/tmp}/ab_compare.XXXXXX")
trap 'rm -rf "$work"' EXIT

echo "perfbench A/B: $workload, $pairs pairs x $seconds s, seeds" \
     "$((seed0 + 1))..$((seed0 + pairs))"
printf "%-5s %-6s %-6s %12s %12s  %s\n" pair seed first base_wall_s \
       cand_wall_s digests
incorrect=0
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
