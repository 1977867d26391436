#!/bin/sh
# Self-test of the report tools on hand-written inputs: the report
# diff must fail on every kind of drift it exists to catch, in reports
# and in bench output pasted into a document, and the bench sweep must
# print each bench's peak memory from the sidecar it wrote.
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
# passes, and a section naming another bench is not checked.
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

## Other (\`bench_other\`)

$fence
not in the output
$fence
EOF
}
doc "row a 1" "row c 3"
"$py" "$tools/stats_diff.py" --doc doc.md bench_unit stdout.txt
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

echo "selftest: ok"
