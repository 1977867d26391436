#!/bin/sh
# Self-test of the report-checking tools on hand-written inputs: each
# tool must fail on what it exists to catch and must treat an empty
# input as empty, not as a crash.
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

# An empty or header-only trace is not an error: critpath.py must say
# so and exit 0, not stack-trace or exit 2.
echo '{"traceEvents":[]}' > empty_trace.json
"$py" "$tools/critpath.py" empty_trace.json | grep -q "no spans"

# A detected corruption keeps its own outcome class: a two-span
# request whose outcome instant is integrity-violation must get that
# row.
cat > integrity_trace.json <<'EOF'
{"traceEvents":[
{"name":"call","cat":"xpc","ph":"B","ts":0,"pid":0,"tid":1001,"args":{"req":1}},
{"name":"handler","cat":"xpc","ph":"B","ts":10,"pid":0,"tid":1002,"args":{"req":1}},
{"name":"handler","cat":"xpc","ph":"E","ts":90,"pid":0,"tid":1002,"args":{"req":1}},
{"name":"outcome","cat":"xpc","ph":"i","ts":100,"pid":0,"tid":1001,"s":"t","args":{"msg":"integrity-violation","req":1}},
{"name":"call","cat":"xpc","ph":"E","ts":100,"pid":0,"tid":1001,"args":{"req":1}}
]}
EOF
"$py" "$tools/critpath.py" --top integrity_trace.json \
    | grep -Eq 'integrity-violation +1 +p50'

echo "selftest: ok"
