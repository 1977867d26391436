#!/bin/sh
# Run every bench of a build into one report directory and print the
# host seconds each bench took, plus the total for the sweep.
#
# Usage: bench_all.sh OUT_DIR [BUILD_DIR]
#
# BUILD_DIR defaults to ./build. Each bench writes its BENCH_<name>.json
# (and HOST_<name>.json sidecar, where it has one) into OUT_DIR; its
# stdout table is discarded. Two sweeps compare with
#   tools/stats_diff.py OUT_A OUT_B
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUT_DIR [BUILD_DIR]" >&2
    exit 2
fi
out="$1"
build="${2:-build}"
mkdir -p "$out"

now() { date +%s.%N; }

found=0
sweep_start="$(now)"
for bench in "$build"/bench/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    found=1
    start="$(now)"
    if ! XPC_BENCH_DIR="$out" "$bench" > /dev/null; then
        echo "bench_all: $bench failed" >&2
        exit 1
    fi
    end="$(now)"
    awk -v n="$(basename "$bench")" -v a="$start" -v b="$end" \
        'BEGIN { printf "%-28s %7.2f s\n", n, b - a }'
done
if [ "$found" = 0 ]; then
    echo "bench_all: no bench binaries under $build/bench" >&2
    exit 2
fi
awk -v a="$sweep_start" -v b="$(now)" \
    'BEGIN { printf "%-28s %7.2f s\n", "total", b - a }'
