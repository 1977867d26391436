#!/usr/bin/env python3
"""Run the repository benchmark as interleaved pairs of two checkouts.

Usage:
    perf_pairs.py PARENT_ROOT CHANGE_ROOT --workload W [--pairs 10]
                  [--seed 1] [--claim METRIC]

Each pair runs `python3 <root>/perfbench/run.py --workload W --seed S
--seconds N --trace 0` once per checkout, N being the parent's
BENCHMARK.json `run_seconds`: the parent first in odd pairs, the
change first in even ones, so a drift of the host's speed favours
neither side. For every end-to-end metric of that BENCHMARK.json it
then prints each side's median and quartiles, how many pairs the
change won (a tie counts for neither side), and whether the change's
median is worse than the parent's by more than the metric's bound (a
fraction of the parent's median).

Beside the medians it prints, for each side, the medians of the two
values on run.py's `# unscaled host_ops_per_s U, host speed scale S`
line: host_ops_per_s is U times S, so a move of the program shows in
U and a move of the reference loop only in S. It also prints the
median over runs of setup_s times S, the set-up time before scaling.
That one is approximate: setup_s and S are each a median over the
repeats of a run, and setup_s is the median of per-repeat ratios. A
side whose runs print no such line reads "n/a"; neither line changes
an exit rule.

With --claim METRIC it also prints whether the change won at least 90%
of at least 10 pairs on METRIC (fewer pairs never meet a claim) and
whether the gap between the medians, in the better direction, exceeds
the parent's quartile spread.

Exit status 1 when a run exits non-zero or reports `correct: false`
(at once), when a larger share of all operations failed on the
change, when any sim_* value differs between any two runs, when a
metric is worse than its bound, or when the claim is not met; 2 on a
usage error; else 0.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_SHARE = 0.9
CLAIM_PAIRS = 10
UNSCALED = re.compile(r"^# unscaled host_ops_per_s ([0-9.eE+-]+), "
                      r"host speed scale ([0-9.eE+-]+)")


def run_once(root, args, seconds):
    """One benchmark run in @p root: (exit code, result dict or None,
    (unscaled host_ops_per_s, host speed scale) or None)."""
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    unscaled = None
    for line in lines[:-1]:
        m = UNSCALED.match(line)
        if m:
            unscaled = (float(m.group(1)), float(m.group(2)))
    try:
        return res.returncode, json.loads(lines[-1]), unscaled
    except (IndexError, ValueError):
        return res.returncode, None, unscaled


def quartiles(vals):
    """(first quartile, median, third quartile) of @p vals."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", metavar="METRIC")
    args = ap.parse_args()

    spec = json.loads(
        (Path(args.parent_root) / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    if args.claim and args.claim not in [m["name"] for m in metrics]:
        ap.error(f"--claim {args.claim} is no end-to-end metric")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    roots = {"parent": args.parent_root, "change": args.change_root}
    results = {"parent": [], "change": []}
    unscaled = {"parent": [], "change": []}
    setup_raw = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            code, result, raw = run_once(roots[side], args, seconds)
            correct = result.get("correct") if result else None
            if code != 0 or correct is not True:
                print(f"pair {pair} {side}: run failed (exit {code}, "
                      f"correct {correct})")
                print("perf_pairs: fail")
                return 1
            results[side].append(result)
            m = result["metrics"]
            if raw:
                unscaled[side].append(raw)
                if "setup_s" in m:
                    setup_raw[side].append(m["setup_s"]["value"] * raw[1])
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k}={m[k]['value']:.6g}" for k in m
                if not k.startswith("sim_")), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds} s")
    failures = []

    # The simulated metrics must not move between any two runs.
    runs = results["parent"] + results["change"]
    for name in sorted(runs[0]["metrics"]):
        seen = sorted({r["metrics"][name]["value"] for r in runs})
        if name.startswith("sim_") and len(seen) > 1:
            failures.append(f"{name} differs between runs: {seen}")
    failed_share = {
        side: sum(r["failed"] for r in results[side]) /
        max(sum(r["attempted"] for r in results[side]), 1)
        for side in results}
    print(f"failed share of operations: parent "
          f"{failed_share['parent']:.6g}, change "
          f"{failed_share['change']:.6g}")
    if failed_share["change"] > failed_share["parent"]:
        failures.append("a larger share of operations failed")
    for side in results:
        # Medians over the runs that printed the line, or n/a.
        raw = unscaled[side]
        med = [f"{statistics.median(v[i] for v in raw):.6g}" if raw
               else "n/a" for i in (0, 1)]
        print(f"{side}: unscaled host_ops_per_s median {med[0]}, "
              f"host speed scale median {med[1]}")
        setup = setup_raw[side]
        med = f"{statistics.median(setup):.6g}" if setup else "n/a"
        print(f"{side}: setup_s x host speed scale (set-up before "
              f"scaling, approximate) median {med}")

    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sign = 1 if higher else -1
        par = [r["metrics"][name]["value"] for r in results["parent"]]
        chg = [r["metrics"][name]["value"] for r in results["change"]]
        pq, cq = quartiles(par), quartiles(chg)
        wins = sum(1 for p, c in zip(par, chg) if (c - p) * sign > 0)
        losses = sum(1 for p, c in zip(par, chg) if (c - p) * sign < 0)
        worse = (pq[1] - cq[1]) * sign
        if pq[1]:
            worse_frac = worse / abs(pq[1])
        else:
            worse_frac = float("inf") if worse > 0 else 0.0
        past_bound = worse_frac > m["bound"]
        ratio = f"x{cq[1] / pq[1]:.3f}" if pq[1] else "n/a"
        print(f"{name}: parent {pq[1]:.6g} [{pq[0]:.6g}-{pq[2]:.6g}] -> "
              f"change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}] {ratio}; "
              f"change won {wins}/{len(par)}, lost {losses}; "
              f"worse than its {m['bound']:.0%} bound: "
              f"{'YES' if past_bound else 'no'}")
        if past_bound:
            failures.append(f"{name} is worse than its bound")
        if name == args.claim:
            enough = (len(par) >= CLAIM_PAIRS and
                      wins >= CLAIM_SHARE * len(par))
            gap = (cq[1] - pq[1]) * sign
            spread = pq[2] - pq[0]
            print(f"claim {name}: won {wins}/{len(par)} pairs, at least "
                  f"{CLAIM_SHARE:.0%} of {CLAIM_PAIRS} or more: "
                  f"{'yes' if enough else 'NO'}; "
                  f"median gap {gap:.6g} exceeds the parent's quartile "
                  f"spread {spread:.6g}: "
                  f"{'yes' if gap > spread else 'NO'}")
            if not enough or gap <= spread:
                failures.append(f"claim on {name} not met")

    for f in failures:
        print(f"FAIL: {f}")
    print("perf_pairs: " + ("fail" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
