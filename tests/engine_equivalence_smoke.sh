#!/usr/bin/env bash
# Battery merge-window equivalence smoke (ctest: engine_equivalence_smoke).
#
# Drives the table2 CLI with battery merging off
# (--scenario.battery-window=0) and at the default 5 s window, and
# checks the contract from EXPERIMENTS.md, "Event-driven core": the two
# runs may differ only through window-merged battery arithmetic —
# aggregate means within 0.5% relative, stddevs within 10% (a stddev of
# near-identical samples amplifies sub-0.1% shifts), and miss counts
# within the documented one-window slop.
#
# Byte-identity of each mode is the golden smoke's job
# (golden_outputs_smoke.sh); the in-process suite (tests/test_engines.cpp)
# pins the same tolerances on SimResult fields. This script pins them
# end-to-end through the CLI, CSV writer, and scenario-override plumbing.
#
# Usage: engine_equivalence_smoke.sh /path/to/table2_battery_lifetime

set -euo pipefail

table2="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

flags="--sets 2 --jobs 2"

"$table2" $flags --scenario.battery-window=0 --csv "$work/exact.csv" \
    > /dev/null
"$table2" $flags --csv "$work/merged.csv" > /dev/null

if ! command -v python3 > /dev/null; then
  echo "window equivalence: SKIPPED (python3 not found)"
  exit 0
fi
python3 - "$work/exact.csv" "$work/merged.csv" <<'PY'
import csv, sys

def rel(a, b):
    d = max(abs(a), abs(b))
    return abs(a - b) / d if d > 0.0 else 0.0

with open(sys.argv[1]) as f:
    exact = list(csv.DictReader(f))
with open(sys.argv[2]) as f:
    merged = list(csv.DictReader(f))
assert len(exact) == len(merged) and exact, "row sets differ"

bad = []
for xrow, mrow in zip(exact, merged):
    assert xrow["scheme"] == mrow["scheme"], "scheme order differs"
    for col in xrow:
        if col == "scheme":
            continue
        x, m = float(xrow[col]), float(mrow[col])
        if col.startswith("misses"):
            ok = abs(x - m) <= 2.0
        elif "stddev" in col:
            ok = rel(x, m) <= 0.10 or abs(x - m) <= 1.0
        else:
            ok = rel(x, m) <= 5e-3
        if not ok:
            bad.append(f"{xrow['scheme']}.{col}: window0={x} default={m}")

if bad:
    sys.exit("merge-window divergence beyond tolerance:\n" + "\n".join(bad))
print("window equivalence (window 0 vs default, tolerance): OK")
PY
