#!/usr/bin/env bash
# Argument handling of bench/ab_compare.sh (ctest: ab_compare_smoke).
# Each malformed command line exits 2 and prints the usage text before
# any run starts:
#
#   - no arguments;
#   - no --workload;
#   - an unknown option;
#   - the removed `BASE CAND -- perf_hotpath args` form;
#   - an option without its value;
#   - a --pairs that is not a number.
#
# The pairing, quartile and claim logic is ab_compare_perfbench_smoke's.
#
# Usage: ab_compare_smoke.sh /path/to/ab_compare.sh

set -euo pipefail

ab="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# A stand-in binary that records being run: no case may get that far.
cat > "$work/bin" <<EOF2
#!/usr/bin/env bash
touch "$work/ran"
EOF2
chmod +x "$work/bin"

expect_usage() {
  local got=0
  "$ab" "$@" > "$work/out.txt" 2>&1 || got=$?
  if [ "$got" -ne 2 ] || ! grep -q '^usage: bench/ab_compare.sh BASE CAND' \
      "$work/out.txt"; then
    cat "$work/out.txt"
    echo "ab_compare smoke: expected exit 2 and the usage text, got" \
         "exit $got: $*" >&2
    exit 1
  fi
}

expect_usage
expect_usage "$work/bin" "$work/bin" --pairs 2
expect_usage "$work/bin" "$work/bin" --workload fig6-energy --reps 2
expect_usage "$work/bin" "$work/bin" -- --sets 1
expect_usage "$work/bin" "$work/bin" --workload
expect_usage "$work/bin" "$work/bin" --workload fig6-energy --pairs x
test ! -e "$work/ran"

echo "ab_compare smoke: OK"
