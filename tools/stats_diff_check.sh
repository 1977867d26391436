#!/bin/sh
# Determinism gate: run a bench twice into two report directories and
# require the BENCH_*.json reports to be identical (stats_diff.py
# fails on any difference in either direction - the simulator is
# deterministic, so any drift is a real change).
#
# Usage: stats_diff_check.sh BENCH_BINARY [BENCH_BINARY...]
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/a" "$work/b"

for bench in "$@"; do
    echo "stats_diff_check: $bench"
    XPC_BENCH_DIR="$work/a" "$bench" --benchmark_filter=NONE \
        > /dev/null
    XPC_BENCH_DIR="$work/b" "$bench" --benchmark_filter=NONE \
        > /dev/null
done

python3 "$here/stats_diff.py" "$work/a" "$work/b"
