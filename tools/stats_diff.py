#!/usr/bin/env python3
"""Compare two BENCH_*.json reports and fail on any difference, or
check a document's pasted bench output against the bench's stdout.

Usage:
    stats_diff.py BASELINE CURRENT
    stats_diff.py --doc EXPERIMENTS.md bench_<name> STDOUT

Both inputs are files written by xpc::bench::BenchReport (or
directories holding several of them, compared pairwise by file name).
The simulator is deterministic, so a report either repeats exactly or
something changed: every leaf of the whole document must be equal -
config, metrics, phases, distributions and every extra section, such
as the regime timelines of BENCH_metastable.json. A change in either
direction counts, and a key present on only one side is a difference.
For directories, a BENCH file present on only one side is a
difference too. Non-finite values must match as well (NaN equals NaN).

With --doc, every fenced block of each `## ` section whose heading
names `bench_<name>` (in backquotes) must occur in STDOUT line by line
and in order. A block may elide lines; it may not change, add or move
one. Sections that name no bench are skipped, and so are fences with
an info string (```sh), which hold commands, not output. The name may
be any program's: README.md's sample report is checked under
`file_service`.

Exit status: 0 = identical, 1 = any difference, 2 = usage/IO error.
"""

import argparse
import json
import math
import os
import sys


def leaves(node, path, out):
    """Every leaf under @p node as {dotted.path: value}, dicts walked."""
    if isinstance(node, dict):
        for key, val in node.items():
            leaves(val, f"{path}.{key}" if path else key, out)
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
    b, c = leaves(base, "", {}), leaves(cur, "", {})
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


def read_lines(path):
    try:
        with open(path) as f:
            return f.read().splitlines()
    except OSError as e:
        print(f"stats_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def doc_blocks(lines, bench):
    """Fenced blocks of the `## ` sections naming @p bench, each as a
    list of (line number, text). A fence with an info string, such as
    ```sh, holds commands, not output, and is skipped."""
    blocks, named, block, skip = [], False, None, False
    for no, line in enumerate(lines, 1):
        if line.startswith("```"):
            if block is None:
                block, skip = [], bool(line[3:].strip())
            else:
                if named and not skip:
                    blocks.append(block)
                block = None
        elif block is not None:
            block.append((no, line))
        elif line.startswith("## "):
            named = f"`{bench}`" in line
    return blocks


def check_doc(doc, bench, stdout):
    """Print each block line missing from @p stdout (or out of order);
    @return True when there is any."""
    out = read_lines(stdout)
    blocks = doc_blocks(read_lines(doc), bench)
    failed = False
    for block in blocks:
        at = 0
        for no, line in block:
            try:
                at = out.index(line, at) + 1
            except ValueError:
                print(f"{doc}:{no}: not in {stdout} in this order: {line}")
                failed = True
                break
    if not failed:
        print(f"{doc}: {len(blocks)} block(s) under {bench} occur in "
              f"{stdout}")
    return failed


def main():
    ap = argparse.ArgumentParser(
        description="Fail on any difference between two BenchReport "
                    "JSON files or directories, or (--doc) on a pasted "
                    "block of a bench's output that its stdout does not "
                    "hold.")
    ap.add_argument("--doc", metavar="DOC",
                    help="check DOC's blocks for bench A against the "
                         "stdout file B")
    ap.add_argument("a", metavar="A", help="BASELINE, or bench_<name>")
    ap.add_argument("b", metavar="B", help="CURRENT, or STDOUT")
    args = ap.parse_args()
    if args.doc:
        failed = check_doc(args.doc, args.a, args.b)
    else:
        failed = report(args.a, args.b)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
