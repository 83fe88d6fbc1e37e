#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table2-kibam --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (a CMake project that compiles the
repository's library from source, Release) into $CARGO_TARGET_DIR or
.bench_build, then runs the perfbench binary with the given arguments.
Build output goes to stderr, so the binary's last stdout line (one JSON
object) stays the last line. Exits non-zero without printing a result
when the build fails, e.g. outside a full checkout.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Returns the path of the built binary; raises on a failed build."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    scratch = os.path.join(build_dir(), "run")
    sys.stdout.flush()
    return subprocess.run([binary, "--scratch", scratch] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
