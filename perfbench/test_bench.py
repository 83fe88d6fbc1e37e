#!/usr/bin/env python3
"""Smoke test of the campaign benchmark; run from the repository root:

    python3 perfbench/test_bench.py

Builds perfbench (as run.py does) and runs every workload at the smoke
size, untraced and traced. Checks that
  * every end-to-end and per-layer metric of BENCHMARK.json is emitted
    with its unit, plus job_fail_ratio (and paper_lifetime_err_pct on
    table2-kibam) in the printed report;
  * results are correct: N workers reproduce the 1-worker digest, the
    traced digest equals the untraced one, no job fails;
  * a deliberately perturbed result fails the digest check;
  * the layer self times cover >= 0.9 of traced job time, and the
    layer-separation predictions hold (see README.md for the measured
    sched.cand_per_step ratio).
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(binary, workload, trace, *extra):
    cmd = [binary, "--scratch", os.path.join(run.build_dir(), "test"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)}: no output\n{p.stderr}")
    return p.returncode, p.stdout, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def check_metrics(result, declared, label):
    got = result["metrics"]
    for m in declared:
        expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
               f"{label}: {m['name']} emitted in {m['unit']}")
    expect(len(got) == len(declared), f"{label}: no undeclared metrics")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    layers = {}
    for w in (x["name"] for x in spec["workloads"]):
        rc, out, r = bench(binary, w, 0)
        expect(rc == 0 and r["correct"] and r["failed"] == 0,
               f"{w}: untraced run correct, 1 worker == N workers, no failures")
        check_metrics(r, spec["end_to_end"], w)
        expect("job_fail_ratio" in out, f"{w}: job_fail_ratio reported")
        if w == "table2-kibam":
            expect("paper_lifetime_err_pct" in out,
                   f"{w}: paper_lifetime_err_pct reported")

        rc, out, r = bench(binary, w, 1)
        expect(rc == 0 and r["correct"], f"{w}: traced digest == untraced")
        check_metrics(r, spec["per_layer"], f"{w} traced")
        layers[w] = {k: v["value"] for k, v in r["metrics"].items()}
        expect(layers[w]["trace.coverage"] >= 0.9,
               f"{w}: layer self times cover >= 0.9 of traced job time")

    rc, out, r = bench(binary, "fig6-energy", 0, "--perturb")
    expect(rc == 1 and r["correct"] is False and "digest differs" in out,
           "a perturbed result fails the digest check")

    expect(layers["table2-kibam"]["battery.share"] <= 0.05,
           "table2-kibam: battery.share <= 0.05")
    expect(layers["idle-stochastic"]["battery.share"] >= 0.5,
           "idle-stochastic: battery.share >= 0.5")
    expect(layers["fig6-energy"]["battery.draws"] == 0,
           "fig6-energy: battery.draws == 0")
    ratio = (layers["fig6-energy"]["sched.cand_per_step"] /
             layers["table2-kibam"]["sched.cand_per_step"])
    expect(ratio > 1.0, f"fig6-energy scores wider ready lists than "
                        f"table2-kibam ({ratio:.2f}x candidates per step)")
    print("all checks passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
