#!/bin/sh
# Self-test of the report tools on hand-written inputs: the report
# diff must fail on every kind of drift it exists to catch, in reports
# and in bench output pasted into a document, the bench sweep must
# print each bench's peak memory from the sidecar it wrote, and the
# benchmark pair runner must judge canned runs as the benchmark does.
#
# Usage: selftest.sh [PYTHON]
#
# PYTHON defaults to python3. Runs in a fresh temporary directory,
# traces each command on stderr, and exits non-zero on the first check
# that does not hold.
set -eux

py="${1:-python3}"
tools="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# stats_diff.py must refuse drift in either direction: a synthetic
# one-cycle improvement, and a report missing from either side,
# have to fail with exit status 1.
mkdir -p diff_a diff_b diff_c
echo '{"phases":{"one_way":21}}' > diff_a/BENCH_unit.json
echo '{"phases":{"one_way":20}}' > diff_b/BENCH_unit.json
for pair in "diff_a diff_b" "diff_a diff_c" "diff_c diff_a"; do
    rc=0
    "$py" "$tools/stats_diff.py" $pair || rc=$?
    test "$rc" -eq 1
done
"$py" "$tools/stats_diff.py" diff_a diff_a

# stats_diff.py compares the whole report, not just the metric
# sections: a changed config value and a changed regime timeline in
# an extra section must both fail, and both must be listed.
mkdir -p whole_a whole_b
cat > whole_a/BENCH_unit.json <<'EOF'
{"bench": "unit", "config": {"seed": 42}, "metrics": {"goodput": 7},
 "slo_crash_heal_on": {"all": {"regimes": "hhhmmh"}}}
EOF
cat > whole_b/BENCH_unit.json <<'EOF'
{"bench": "unit", "config": {"seed": 43}, "metrics": {"goodput": 7},
 "slo_crash_heal_on": {"all": {"regimes": "hhhmhh"}}}
EOF
rc=0
"$py" "$tools/stats_diff.py" whole_a whole_b > whole.out || rc=$?
test "$rc" -eq 1
grep -q "config.seed: 42 -> 43" whole.out
grep -q "slo_crash_heal_on.all.regimes:" whole.out

# --doc checks the fenced blocks of the sections naming a bench
# against its stdout: a changed digit and a swapped pair of lines
# must fail with exit status 1 and name the line; an elided line
# passes, and neither a section naming another bench nor a fence with
# an info string (```sh, commands, not output) is checked.
printf 'title\nrow a 1\nrow b 2\nrow c 3\n' > stdout.txt
doc() {
    fence='```'
    cat > doc.md <<EOF
# Doc

## One (\`bench_unit\`)

$fence
title
$1
$2
$fence

${fence}sh
bench_unit --a-command-not-in-the-output
$fence

## Other (\`bench_other\`)

$fence
not in the output
$fence
EOF
}
doc "row a 1" "row c 3"
"$py" "$tools/stats_diff.py" --doc doc.md bench_unit stdout.txt > sh.out
grep -q "doc.md: 1 block(s) under bench_unit occur" sh.out
doc "row a 1" "row b 7"
rc=0
"$py" "$tools/stats_diff.py" --doc doc.md bench_unit stdout.txt \
    > digit.out || rc=$?
test "$rc" -eq 1
grep -q "doc.md:8: .*row b 7" digit.out
doc "row b 2" "row a 1"
rc=0
"$py" "$tools/stats_diff.py" --doc doc.md bench_unit stdout.txt \
    > swap.out || rc=$?
test "$rc" -eq 1
grep -q "doc.md:8: .*row a 1" swap.out

# bench_all.sh prints each bench's peak_rss_mb from the HOST_ sidecar
# it just wrote beside its seconds, and the largest (here the first
# bench's, not the last's) on the total line. A bench that writes no
# sidecar fails the sweep, even where an older sidecar of the same
# name is left in the directory.
mkdir -p fake/bench sweep
cat > fake/bench/bench_stub <<'EOF'
#!/bin/sh
echo '{"bench": "stub", "peak_rss_mb": 31.4}' > "$XPC_BENCH_DIR/HOST_stub.json"
EOF
sed 's/stub/stub_small/g; s/31\.4/9.5/' fake/bench/bench_stub \
    > fake/bench/bench_stub_small
chmod +x fake/bench/bench_stub fake/bench/bench_stub_small
sh "$tools/bench_all.sh" sweep fake > sweep.out
grep -Eq '^bench_stub +[0-9.]+ s +31\.4 MB$' sweep.out
grep -Eq '^bench_stub_small +[0-9.]+ s +9\.5 MB$' sweep.out
grep -Eq '^total +[0-9.]+ s +31\.4 MB$' sweep.out
printf '#!/bin/sh\n' > fake/bench/bench_silent
chmod +x fake/bench/bench_silent
echo '{"peak_rss_mb": 99}' > sweep/HOST_silent.json
rc=0
sh "$tools/bench_all.sh" sweep fake > /dev/null 2> silent.err || rc=$?
test "$rc" -eq 1
grep -q "bench_silent wrote no peak_rss_mb" silent.err

# perf_pairs.py runs the benchmark's pair protocol over two checkouts.
# Each stub checkout's perfbench/run.py logs its side and arguments
# and prints the next of its canned result lines, after the next of
# its canned `# unscaled` lines where it has them. The parent must run
# first in odd pairs and second in even ones, each run as long as the
# parent's BENCHMARK.json says. A met claim passes and prints each
# side's medians of the unscaled rate and the host speed scale, and
# the median over runs of setup_s times the scale (not the product of
# the two medians); the same claim over 6 pairs, whose runs print no
# such line, reads "n/a" there. That claim, a claim won in only 8 of
# 10 pairs, a sim_* value that differs between runs and a metric past
# its bound each fail with exit status 1.
mkstub() {
    mkdir -p "$1/perfbench"
    cat > "$1/perfbench/run.py" <<'EOF'
import pathlib, sys
root = pathlib.Path(__file__).resolve().parent.parent
log = root.parent / "calls.log"
with open(log, "a") as f:
    f.write(root.name + " " + " ".join(sys.argv[1:]) + "\n")
n = [l.split()[0] for l in log.read_text().splitlines()].count(root.name)
print("# stub run")
if (root / "unscaled.txt").exists():
    print((root / "unscaled.txt").read_text().splitlines()[n - 1])
print((root / "runs.txt").read_text().splitlines()[n - 1])
EOF
    cat > "$1/BENCHMARK.json" <<'EOF'
{"run_seconds": 3, "end_to_end": [
 {"name": "host_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
 {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
 {"name": "sim_ops_per_mcycle", "unit": "1/Mcycle", "better": "higher",
  "bound": 0.1}]}
EOF
}
result() {
    printf '{"correct": true, "attempted": 100, "failed": 0, "metrics": {"host_ops_per_s": {"value": %s, "unit": "1/s"}, "peak_rss_mb": {"value": %s, "unit": "MB"}, "sim_ops_per_mcycle": {"value": %s, "unit": "1/Mcycle"}, "setup_s": {"value": %s, "unit": "s"}}}\n' \
        "$1" "$2" "$3" "$4"
}
for s in met few eight sim bound; do
    mkstub "pairs_$s/parent"
    mkstub "pairs_$s/change"
    for i in 0 1 2 3 4 5 6 7 8 9; do
        result $((100 + i)) 20 5 $((10 - i)) >> "pairs_$s/parent/runs.txt"
        ops=$((120 + i)) rss=20 sim=5
        case "$s.$i" in
            eight.8|eight.9) ops=$((99 + i)) ;;
            sim.3) sim=5.5 ;;
            bound.*) rss=23 ;;
        esac
        result "$ops" "$rss" "$sim" $((20 - i)) \
            >> "pairs_$s/change/runs.txt"
    done
done
for i in 0 1 2 3 4 5 6 7 8 9; do
    for side in parent:4 change:5; do
        printf '# unscaled host_ops_per_s %s.0, host speed scale 2.%s00 (median over repeats)\n' \
            "${side#*:}$i" "$i" >> "pairs_met/${side%:*}/unscaled.txt"
    done
done
pairs() {
    s=$1 want=$2
    shift 2
    rc=0
    "$py" "$tools/perf_pairs.py" "pairs_$s/parent" "pairs_$s/change" \
        --workload unit --claim host_ops_per_s "$@" \
        > "pairs_$s.out" || rc=$?
    test "$rc" -eq "$want"
}
pairs met 0
grep -q "won 10/10 pairs, at least 90% of 10 or more: yes; .*: yes$" \
    pairs_met.out
test "$(cut -d' ' -f1 pairs_met/calls.log | tr '\n' ' ')" = \
    "$(printf 'parent change change parent %.0s' 1 2 3 4 5)"
test "$(grep -c -- '--workload unit --seed 1 --seconds 3 --trace 0$' \
    pairs_met/calls.log)" -eq 20
grep -q "^parent: unscaled host_ops_per_s median 44.5, host speed scale median 2.45$" \
    pairs_met.out
grep -q "^change: unscaled host_ops_per_s median 54.5, host speed scale median 2.45$" \
    pairs_met.out
grep -q "^parent: setup_s x host speed scale (set-up before scaling, approximate) median 13.45$" \
    pairs_met.out
grep -q "^change: setup_s x host speed scale (set-up before scaling, approximate) median 37.95$" \
    pairs_met.out
pairs few 1 --pairs 6
grep -q "won 6/6 pairs, at least 90% of 10 or more: NO" pairs_few.out
grep -q "^parent: unscaled host_ops_per_s median n/a, host speed scale median n/a$" \
    pairs_few.out
grep -q "^parent: setup_s x host speed scale (set-up before scaling, approximate) median n/a$" \
    pairs_few.out
test "$(wc -l < pairs_few/calls.log)" -eq 12
pairs eight 1
grep -q "won 8/10 pairs, at least 90% of 10 or more: NO" pairs_eight.out
pairs sim 1
grep -q "FAIL: sim_ops_per_mcycle differs between runs" pairs_sim.out
pairs bound 1
grep -q "^peak_rss_mb: .* worse than its 10% bound: YES" pairs_bound.out

echo "selftest: ok"
