#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ycsb_write_xpc --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the simulator from
src/) into .bench_build/perfbench, runs the perfbench binary, checks
that its result names exactly the metrics BENCHMARK.json lists for the
chosen mode, and prints the result as the last line of standard output.
Exits non-zero when the build fails, the sources are missing, a check
inside the benchmark fails, or the result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]

    def attempt():
        steps = [compile_]
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, configure)
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
            if res.returncode != 0:
                return False
        return True

    if not attempt():
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not attempt():
            fail("build failed")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(BUILD.parent / f"spans-{args.workload}.csv")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")

    lines = res.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit code {res.returncode})")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if list(result.get("metrics", {})) != names:
        fail("result metrics differ from BENCHMARK.json")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result")

    print(json.dumps(result))
    if res.returncode != 0 or result["correct"] is not True:
        print(f"perfbench: benchmark checks failed (exit code "
              f"{res.returncode})", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
