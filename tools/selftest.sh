#!/bin/sh
# Self-test of the report-diff tool on hand-written inputs: it must
# fail on every kind of drift it exists to catch, in reports and in
# bench output pasted into a document.
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

echo "selftest: ok"
