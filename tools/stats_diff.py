#!/usr/bin/env python3
"""Compare two BENCH_*.json reports and fail on any difference.

Usage:
    stats_diff.py BASELINE CURRENT

Both inputs are files written by xpc::bench::BenchReport (or
directories holding several of them, compared pairwise by file name).
The simulator is deterministic, so a report either repeats exactly or
something changed: every leaf under "metrics", "phases" and
"distributions" must be equal, a change in either direction counts,
and a key present on only one side is a difference. For directories,
a BENCH file present on only one side is a difference too.
Non-finite values must match as well (NaN equals NaN).

Exit status: 0 = identical, 1 = any difference, 2 = usage/IO error.
"""

import argparse
import json
import math
import os
import sys

SECTIONS = ("metrics", "phases", "distributions")


def leaves(node, path, out):
    """Every leaf under @p node as {dotted.path: value}, dicts walked."""
    if isinstance(node, dict):
        for key, val in node.items():
            leaves(val, f"{path}.{key}", out)
    else:
        out[path] = node
    return out


def same(a, b):
    """Equal, where NaN counts as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def compare(base, cur):
    """@return one line of text per difference, in either direction."""
    b, c = {}, {}
    for section in SECTIONS:
        leaves(base.get(section, {}), section, b)
        leaves(cur.get(section, {}), section, c)
    diffs = []
    for key in sorted(set(b) | set(c)):
        if key not in b:
            diffs.append(f"  only in current:  {key}")
        elif key not in c:
            diffs.append(f"  only in baseline: {key}")
        elif not same(b[key], c[key]):
            diffs.append(f"  {key}: {b[key]!r} -> {c[key]!r}")
    return diffs


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"stats_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def bench_files(directory):
    return {n for n in os.listdir(directory)
            if n.startswith("BENCH_") and n.endswith(".json")}


def report(base_arg, cur_arg):
    """Print every difference; @return True when there is any."""
    if os.path.isfile(base_arg) and os.path.isfile(cur_arg):
        pairs = [(os.path.basename(cur_arg), base_arg, cur_arg)]
    elif os.path.isdir(base_arg) and os.path.isdir(cur_arg):
        base_names = bench_files(base_arg)
        cur_names = bench_files(cur_arg)
        if not base_names | cur_names:
            print(f"stats_diff: no BENCH_*.json under {base_arg} or "
                  f"{cur_arg}", file=sys.stderr)
            sys.exit(2)
        pairs = [(n, os.path.join(base_arg, n), os.path.join(cur_arg, n))
                 for n in sorted(base_names | cur_names)]
    else:
        print("stats_diff: arguments must both be files or both be "
              "directories", file=sys.stderr)
        sys.exit(2)

    failed = False
    for name, base_path, cur_path in pairs:
        if not os.path.exists(base_path):
            failed = True
            print(f"{name}: only in current")
            continue
        if not os.path.exists(cur_path):
            failed = True
            print(f"{name}: only in baseline")
            continue
        diffs = compare(load(base_path), load(cur_path))
        if diffs:
            failed = True
            print(f"{name}: {len(diffs)} difference(s):")
            print("\n".join(diffs))
        else:
            print(f"{name}: identical")
    return failed


def main():
    ap = argparse.ArgumentParser(
        description="Fail on any difference between two BenchReport "
                    "JSON files or directories.")
    ap.add_argument("baseline")
    ap.add_argument("current")
    args = ap.parse_args()
    sys.exit(1 if report(args.baseline, args.current) else 0)


if __name__ == "__main__":
    main()
