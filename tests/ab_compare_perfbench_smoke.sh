#!/usr/bin/env bash
# The A/B logic of bench/ab_compare.sh (ctest:
# ab_compare_perfbench_smoke), driven by stand-in binaries that print
# perfbench's output shape with known numbers:
#
#   1. a side 20% faster on every pair wins 4/4 pairs on every metric
#      and clears the claim rule; its digests match the base's; both
#      sides run each pair's seed, and the side that runs first
#      alternates;
#   2. a self-compare wins 0/4 and claims nothing;
#   3. a side whose result is incorrect makes the script exit 1.
#
# Usage: ab_compare_perfbench_smoke.sh /path/to/ab_compare.sh

set -euo pipefail

ab="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# fake NAME SCALE CORRECT: a stand-in perfbench whose metrics are
# SCALE * (1 + seed / 100); it requires the flags the script passes
# and logs "NAME SEED" per run.
fake() {
  cat > "$work/$1" <<EOF
#!/usr/bin/env bash
set -eu
seed=""
while [ \$# -gt 0 ]; do
  case "\$1" in
    --seed) seed=\$2; shift 2 ;;
    --workload|--seconds|--trace|--scratch) shift 2 ;;
    *) echo "unexpected flag \$1" >&2; exit 2 ;;
  esac
done
echo "$1 \$seed" >> "$work/calls"
v=\$(awk -v s="\$seed" 'BEGIN { printf "%.6g", $2 * (1 + s / 100) }')
echo "digest 00000000000000aa: identical across campaigns"
m=""
for name in wall_s cpu_s setup_s peak_rss_mb job_p50_ms job_p90_ms; do
  m="\$m\${m:+, }\\"\$name\\": {\\"value\\": \$v, \\"unit\\": \\"s\\"}"
done
echo "{\\"correct\\": $3, \\"attempted\\": 10, \\"failed\\": 0, \\"metrics\\": {\$m}}"
[ "$3" = true ]
EOF
  chmod +x "$work/$1"
}

fake base 1.0 true
fake fast 0.8 true
fake wrong 1.0 false

run() { "$ab" "$@" --workload fig6-energy --pairs 4 --seconds 1; }

run "$work/base" "$work/fast" > "$work/fast.txt"
cat "$work/fast.txt"
test "$(grep -c ' same$' "$work/fast.txt")" -eq 4
test "$(tr '\n' ' ' < "$work/calls")" = \
  "base 1 fast 1 fast 2 base 2 base 3 fast 3 fast 4 base 4 "
for metric in wall_s cpu_s setup_s peak_rss_mb job_p50_ms job_p90_ms; do
  grep -Eq "^$metric .* -20\.0% +4/4 +yes$" "$work/fast.txt"
done

run "$work/base" "$work/base" > "$work/self.txt"
grep -Eq '^wall_s .* \+0\.0% +0/4 +no$' "$work/self.txt"

status=0
run "$work/base" "$work/wrong" > "$work/wrong.txt" 2>&1 || status=$?
test "$status" -eq 1

echo "ab_compare perfbench smoke: OK"
