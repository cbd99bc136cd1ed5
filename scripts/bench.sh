#!/usr/bin/env bash
# bench.sh — run the fault-simulation micro-benchmarks (the
# BenchmarkTable-class suite the active-region engine is measured by), the
# Procedure 2 leg (BenchmarkProcedure2: core.FindSubsequence for every
# target of the seed-1 s1423 T0), the post-selection leg
# (BenchmarkCompactVerify: §3.2 compaction plus coverage certification of
# the seed-1 s1423 greedy result), the annealing leg
# (BenchmarkAnnealSelect: the anneal strategy's 25 trials on the seed-1
# s820 T0, then compaction of the winner), the T0 compaction leg
# (BenchmarkT0Compaction: vector-restoration compaction of the seed-1
# s298 ATPG sequence), the per-job leg (BenchmarkSynthesizeS27: one
# daemon-mix-shaped s27 job through service.Synthesize, which carries
# the pipeline's per-job fixed costs) and the two ATPG legs
# (BenchmarkATPGRound: s298 at cap 200 over a fixed seed list;
# BenchmarkATPGS1423: the seed-1 s1423 ATPG at cap 1500) with
# -benchmem, and optionally emit the parsed numbers as JSON.
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
# deterministic counts the benchmarks report (`detected`, and `t0len`,
# `totlen`, `gates`, `sims` and `trials` where a leg reports them); CI
# diffs the counts against BENCH_28.json via scripts/bench_check.sh.
#
# BENCH_28.json in the repository root records the omission-memo round
# (end-to-end benchmark pairs, from scripts/ab.sh, after Procedure 2's
# repeated omission trials came to be answered from the Selector's memo)
# plus the expected counts of every leg; BENCH_27.json, BENCH_26.json,
# BENCH_24.json,
# BENCH_23.json, BENCH_22.json,
# BENCH_21.json, BENCH_17.json, BENCH_15.json, BENCH_14.json,
# BENCH_13.json, BENCH_12.json, BENCH_9.json and BENCH_3.json hold the
# earlier rounds' records.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='Table2S27|FaultSimLarge|FaultSimEvaluate|FaultSimSingle|Procedure2|CompactVerify|AnnealSelect|T0Compaction|SynthesizeS27|ATPGRound|ATPGS1423'
COUNT=3x
OUT=""
STDOUT_JSON=0
while [ $# -gt 0 ]; do
    case "$1" in
        -short)
            BENCH='Table2S27|FaultSimLarge/s1423|FaultSimEvaluate/s1423|FaultSimSingle/s1423|Procedure2|CompactVerify|AnnealSelect|T0Compaction|SynthesizeS27|ATPGRound|ATPGS1423'
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
        ns = ""; bytes = ""; allocs = ""; detected = ""; t0len = ""; totlen = ""; gates = ""; sims = ""; trials = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
            if ($(i+1) == "detected") detected = $i
            if ($(i+1) == "t0len") t0len = $i
            if ($(i+1) == "totlen") totlen = $i
            if ($(i+1) == "gates/op") gates = $i
            if ($(i+1) == "sims") sims = $i
            if ($(i+1) == "trials") trials = $i
        }
        if (ns == "") next
        if (n++) body = body ",\n"
        body = body sprintf("    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"detected\": %s, \"t0len\": %s, \"totlen\": %s, \"gates\": %s, \"sims\": %s, \"trials\": %s}",
                            name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs,
                            detected == "" ? "null" : detected, t0len == "" ? "null" : t0len,
                            totlen == "" ? "null" : totlen, gates == "" ? "null" : gates,
                            sims == "" ? "null" : sims, trials == "" ? "null" : trials)
    }
    END {
        printf "{\n  \"benchtime\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": {\n%s\n  }\n}\n",
               benchtime, cpu, body
    }' "$TXT" > "$OUT"
    echo "wrote $OUT" >&2
fi
