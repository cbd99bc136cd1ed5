#!/usr/bin/env bash
# bench_check.sh — diff the deterministic detection counts of a
# scripts/bench.sh -json run against the expected counts committed in
# BENCH_21.json ("detections" section), and fail on any mismatch. The
# counts cover every engine configuration the suite exercises — serial,
# sharded (workers=1,2,4), the candidate-parallel Procedure 2 leg, the
# post-selection compaction/verification leg and the T0 compaction leg —
# so behavior drift in any of them fails the gate.
#
# Timings vary with the host and are never compared; the detection
# counts are pure functions of the circuits and fixed RNG seeds, so any
# drift means the fault-simulation engines changed *behavior*, not just
# speed — exactly the class of regression a timing-only smoke run lets
# through.
#
# Usage: scripts/bench_check.sh <bench-run.json> [BENCH_21.json]
set -euo pipefail
cd "$(dirname "$0")/.."

RUN=${1:?usage: scripts/bench_check.sh <bench-run.json> [expected.json]}
EXPECTED=${2:-BENCH_21.json}

# Extract "name": count pairs. The run file carries them as
#   "Benchmark...": {..., "detected": N}
# and the expected file as
#   "detections": { "Benchmark...": N, ... }
run_counts() {
    grep -o '"Benchmark[^"]*": *{[^}]*}' "$RUN" |
        sed -n 's/^"\(Benchmark[^"]*\)": .*"detected": *\([0-9.]*\).*/\1 \2/p'
}
expected_counts() {
    sed -n '/"detections": {/,/}/p' "$EXPECTED" |
        sed -n 's/^ *"\(Benchmark[^"]*\)": *\([0-9.]*\),*$/\1 \2/p'
}

RUNS=$(run_counts)
EXP=$(expected_counts)
if [ -z "$RUNS" ]; then
    echo "bench_check: no detection counts found in $RUN" >&2
    exit 1
fi
if [ -z "$EXP" ]; then
    echo "bench_check: no \"detections\" section found in $EXPECTED" >&2
    exit 1
fi

fail=0
checked=0
# The gate must not degrade silently: the CI -short subset's benchmarks
# have to be present in the run output at all, or a renamed/deleted
# benchmark (or a dropped ReportMetric) would shrink the comparison to
# nothing while still "passing".
for required in BenchmarkTable2S27 BenchmarkFaultSimLarge/s1423 \
    BenchmarkFaultSimEvaluate/s1423 BenchmarkFaultSimSingle/s1423 \
    BenchmarkProcedure2 BenchmarkCompactVerify BenchmarkT0Compaction; do
    if ! echo "$RUNS" | awk -v n="$required" '$1 == n { found=1 } END { exit !found }'; then
        echo "bench_check: required benchmark $required missing from $RUN (renamed, deleted, or no detected metric?)" >&2
        fail=1
    fi
done
while read -r name got; do
    want=$(echo "$EXP" | awk -v n="$name" '$1 == n { print $2 }')
    if [ -z "$want" ]; then
        echo "bench_check: $name is not in $EXPECTED — add its expected count" >&2
        fail=1
        continue
    fi
    if ! awk -v a="$got" -v b="$want" 'BEGIN { exit (a+0 == b+0) ? 0 : 1 }'; then
        echo "bench_check: $name detected $got faults, expected $want" >&2
        fail=1
    else
        checked=$((checked + 1))
    fi
done <<<"$RUNS"

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAIL — detection counts diverge from $EXPECTED" >&2
    exit 1
fi
echo "bench_check: PASS — $checked benchmark detection counts match $EXPECTED"
