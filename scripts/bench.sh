#!/usr/bin/env bash
# bench.sh — run the fault-simulation micro-benchmarks (the
# BenchmarkTable-class suite the active-region engine is measured by), the
# Procedure 2 leg (BenchmarkProcedure2: core.FindSubsequence for every
# target of the seed-1 s1423 T0), the post-selection leg
# (BenchmarkCompactVerify: §3.2 compaction plus coverage certification of
# the seed-1 s1423 greedy result) and the T0 compaction leg
# (BenchmarkT0Compaction: vector-restoration compaction of the seed-1
# s298 ATPG sequence) with -benchmem, and optionally emit the parsed
# numbers as JSON.
#
# Usage:
#   scripts/bench.sh                     # full suite, 3 iterations each
#   scripts/bench.sh -short              # CI subset, 1 iteration each
#   scripts/bench.sh -benchtime 10x      # more iterations
#   scripts/bench.sh -out bench.json     # also write parsed JSON
#   scripts/bench.sh -json               # parsed JSON on stdout (raw
#                                        # go test output on stderr)
#
# The parsed JSON carries, per benchmark, the timing numbers and the
# deterministic `detected` fault count the benchmarks report; CI diffs
# the counts against BENCH_21.json via scripts/bench_check.sh.
#
# BENCH_21.json in the repository root records the one-region-stepper
# round (before/after timings of BenchmarkFaultSimLarge and
# BenchmarkFaultSimEvaluate) plus the expected detection counts of every
# leg; BENCH_17.json, BENCH_15.json, BENCH_14.json, BENCH_13.json,
# BENCH_12.json, BENCH_9.json and BENCH_3.json hold the earlier rounds'
# records.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='Table2S27|FaultSimSharded|FaultSimLarge|FaultSimEvaluate|FaultSimSingle|Procedure2|CompactVerify|T0Compaction'
COUNT=3x
OUT=""
STDOUT_JSON=0
while [ $# -gt 0 ]; do
    case "$1" in
        -short)
            BENCH='Table2S27|FaultSimLarge/s1423|FaultSimEvaluate/s1423|FaultSimSingle/s1423|Procedure2|CompactVerify|T0Compaction'
            COUNT=1x
            ;;
        -benchtime)
            COUNT=$2
            shift
            ;;
        -out)
            OUT=$2
            shift
            ;;
        -json)
            STDOUT_JSON=1
            ;;
        *)
            echo "usage: scripts/bench.sh [-short] [-benchtime Nx] [-out file.json] [-json]" >&2
            exit 2
            ;;
    esac
    shift
done

TXT=$(mktemp)
trap 'rm -f "$TXT"' EXIT
if [ "$STDOUT_JSON" = 1 ]; then
    # Keep stdout clean for the JSON document.
    go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$COUNT" . | tee "$TXT" >&2
    OUT=${OUT:-/dev/stdout}
else
    go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$COUNT" . | tee "$TXT"
fi

if [ -n "$OUT" ]; then
    awk -v benchtime="$COUNT" '
    /^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""; detected = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
            if ($(i+1) == "detected") detected = $i
        }
        if (ns == "") next
        if (n++) body = body ",\n"
        body = body sprintf("    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"detected\": %s}",
                            name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs,
                            detected == "" ? "null" : detected)
    }
    END {
        printf "{\n  \"benchtime\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": {\n%s\n  }\n}\n",
               benchtime, cpu, body
    }' "$TXT" > "$OUT"
    echo "wrote $OUT" >&2
fi
