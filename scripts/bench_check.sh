#!/usr/bin/env bash
# bench_check.sh — diff the deterministic counts of a scripts/bench.sh
# -json run against the expected counts committed in BENCH_28.json
# ("detections" section), and fail on any mismatch. The detection
# counts cover every engine configuration the suite exercises — the
# whole-list and candidate-evaluation engine legs, the candidate-parallel
# Procedure 2 leg, the post-selection compaction/verification leg, the
# annealing selection leg, the T0 compaction leg, the whole-pipeline
# s27 job leg and the two ATPG legs — so behavior drift in any of them
# fails the gate. Where a leg also reports the lengths `t0len` and
# `totlen`, they are gated too, under the keys "<benchmark>:t0len" and
# "<benchmark>:totlen": the s27 job leg's T0s detect every fault, so
# only its lengths move when T0 compaction, selection or §3.2
# compaction change behavior. Where a leg reports `gates` (the gates
# its engine evaluated per op), that work count is gated under
# "<benchmark>:gates": like a detection count it is a function of the
# circuit and seed only, so a change to it must be recorded with its
# reason. So are Procedure 2's serial-equivalent trial count `sims` and
# a search strategy's trial count `trials`, under "<benchmark>:sims" and
# "<benchmark>:trials": a memo that answers a trial must still charge it.
#
# Timings vary with the host and are never compared; the detection
# counts are pure functions of the circuits and fixed RNG seeds, so any
# drift means the fault-simulation engines changed *behavior*, not just
# speed — exactly the class of regression a timing-only smoke run lets
# through.
#
# Usage: scripts/bench_check.sh <bench-run.json> [BENCH_28.json]
set -euo pipefail
cd "$(dirname "$0")/.."

RUN=${1:?usage: scripts/bench_check.sh <bench-run.json> [expected.json]}
EXPECTED=${2:-BENCH_28.json}

# Extract "name": count pairs. The run file carries them as
#   "Benchmark...": {..., "detected": N, "t0len": L, "totlen": M, "gates": G,
#                    "sims": S, "trials": R}
# (a length or work count is null where the leg does not report it) and
# the expected file as
#   "detections": { "Benchmark...": N, "Benchmark...:totlen": M, ... }
run_counts() {
    grep -o '"Benchmark[^"]*": *{[^}]*}' "$RUN" |
        sed -n 's/^"\(Benchmark[^"]*\)": .*"detected": *\([0-9.]*\).*/\1 \2/p'
    for metric in t0len totlen gates sims trials; do
        grep -o '"Benchmark[^"]*": *{[^}]*}' "$RUN" |
            sed -n "s/^\"\(Benchmark[^\"]*\)\": .*\"$metric\": *\([0-9.][0-9.]*\).*/\1:$metric \2/p"
    done
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
    BenchmarkProcedure2 BenchmarkProcedure2:sims BenchmarkCompactVerify \
    BenchmarkAnnealSelect BenchmarkAnnealSelect:sims BenchmarkAnnealSelect:trials \
    BenchmarkT0Compaction BenchmarkSynthesizeS27 \
    BenchmarkSynthesizeS27:t0len BenchmarkSynthesizeS27:totlen \
    BenchmarkATPGRound BenchmarkATPGRound:t0len \
    BenchmarkATPGS1423 BenchmarkATPGS1423:t0len BenchmarkATPGS1423:gates; do
    if ! echo "$RUNS" | awk -v n="$required" '$1 == n { found=1 } END { exit !found }'; then
        echo "bench_check: required count $required missing from $RUN (renamed, deleted, or no reported metric?)" >&2
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
        echo "bench_check: $name counted $got, expected $want" >&2
        fail=1
    else
        checked=$((checked + 1))
    fi
done <<<"$RUNS"

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAIL — counts diverge from $EXPECTED" >&2
    exit 1
fi
echo "bench_check: PASS — $checked benchmark counts match $EXPECTED"
