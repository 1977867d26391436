#!/bin/sh
# Run every bench of a build into one report directory and print the
# host seconds and peak resident memory each bench took, plus the
# sweep's total seconds and its largest peak.
#
# Usage: bench_all.sh OUT_DIR [BUILD_DIR]
#
# BUILD_DIR defaults to ./build. Each bench writes its BENCH_<name>.json
# and HOST_<name>.json sidecar into OUT_DIR, and the memory column is
# that sidecar's peak_rss_mb; a bench that writes none fails the sweep.
# Its stdout table is discarded. Two sweeps compare with
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
peak=0
sweep_start="$(now)"
for bench in "$build"/bench/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    found=1
    name="$(basename "$bench")"
    sidecar="$out/HOST_${name#bench_}.json"
    rm -f "$sidecar"
    start="$(now)"
    if ! XPC_BENCH_DIR="$out" "$bench" > /dev/null; then
        echo "bench_all: $bench failed" >&2
        exit 1
    fi
    end="$(now)"
    mb="$(sed -n 's/.*"peak_rss_mb": *\([0-9.eE+-]*\).*/\1/p' "$sidecar" \
        2>/dev/null || true)"
    if [ -z "$mb" ]; then
        echo "bench_all: $bench wrote no peak_rss_mb to $sidecar" >&2
        exit 1
    fi
    awk -v n="$name" -v a="$start" -v b="$end" -v m="$mb" \
        'BEGIN { printf "%-28s %7.2f s %7.1f MB\n", n, b - a, m }'
    peak="$(awk -v p="$peak" -v m="$mb" 'BEGIN { print (m > p ? m : p) }')"
done
if [ "$found" = 0 ]; then
    echo "bench_all: no bench binaries under $build/bench" >&2
    exit 2
fi
awk -v a="$sweep_start" -v b="$(now)" -v m="$peak" \
    'BEGIN { printf "%-28s %7.2f s %7.1f MB\n", "total", b - a, m }'
