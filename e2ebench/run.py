#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload solve_wide --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs only rebuild what changed. Build output goes to stderr, the
benchmark's report to stdout, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Each run's JSON line is also
appended, with its arguments, to <out-dir>/results.jsonl (default
.bench_results/), the input of e2ebench/compare.py. A traced run
(--trace 1) writes a Perfetto trace there too.

Exits non-zero without a result line when the sources are missing or the
build fails, and non-zero after the result line when an output check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources (CMakeLists.txt, src/) not found in {ROOT}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      # Never download anything (the repository build falls
                      # back to fetching GTest when it is not installed).
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2ebench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=900)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return build_dir / "e2ebench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".bench_results")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    exe = build(build_dir)
    out_dir = pathlib.Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 170 s")
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if lines and lines[-1].startswith("{"):
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "exit": done.returncode, **json.loads(lines[-1])}
        with open(out_dir / "results.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
