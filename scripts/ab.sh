#!/usr/bin/env bash
# ab.sh — compare the end-to-end benchmark of a base revision with the
# working tree: N alternating pairs of
#
#   bash perfbench/run.sh --workload W --seed S --seconds 30 --trace 0
#
# one run on each side per pair, the side that goes first alternating
# between pairs. Each side runs from its own copy under .bench_build/ab/
# (the base extracted with git archive, the working tree copied with its
# untracked, non-ignored files), so both are built the same way and
# neither side's run disturbs the checkout. It prints the workload's
# entry of the "end_to_end" block that BENCH_*.json records: per metric,
# each side's q1/median/q3 and runs, the median of the per-pair
# working/base ratios, the pairs the working tree wins and the base's
# IQR over its median. A metric whose base spread exceeds its bound in
# BENCHMARK.json is marked "resolved": false, since a change smaller
# than the noise cannot be told from it. Two verdicts follow per metric:
# "gain_shown" is true when the working tree wins at least 9 of 10 pairs
# (a tie counts for neither side) and its median beats the base median
# by more than the base's IQR; "within_bound" is true when the working
# median trails the base median by at most the metric's bound, and
# "unresolved" when the base spread exceeds the bound, unless every
# working run beats every base run.
#
# Usage: scripts/ab.sh <base-rev> [-w workload] [-s seed] [-n pairs] [-o out.json]
#   scripts/ab.sh HEAD~1 -w daemon-mix -n 10
#   scripts/ab.sh main -w select-t0 -s 2 -n 3 -o ab-select.json
#
# Defaults: daemon-mix, seed 1, 10 pairs. Exits non-zero when a run
# fails (perfbench exits non-zero on any failed operation or digest
# mismatch); the raw result lines stay in .bench_build/ab/.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:?usage: scripts/ab.sh <base-rev> [-w workload] [-s seed] [-n pairs] [-o out.json]}
shift
WORKLOAD=daemon-mix
SEED=1
PAIRS=10
OUT=""
while [ $# -gt 0 ]; do
    case "$1" in
        -w) WORKLOAD=$2; shift ;;
        -s) SEED=$2; shift ;;
        -n) PAIRS=$2; shift ;;
        -o) OUT=$2; shift ;;
        *)
            echo "usage: scripts/ab.sh <base-rev> [-w workload] [-s seed] [-n pairs] [-o out.json]" >&2
            exit 2
            ;;
    esac
    shift
done

ab=.bench_build/ab
rm -rf "$ab/base" "$ab/work"
mkdir -p "$ab/base" "$ab/work"
git archive "$BASE" | tar -x -C "$ab/base"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
    tar --null -cf - -T - | tar -x -C "$ab/work"

results="$ab/$WORKLOAD-seed$SEED.txt"
: > "$results"
run() { # side pair
    local line
    echo "ab: pair $2/$PAIRS, $1" >&2
    line=$(bash "$ab/$1/perfbench/run.sh" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds 30 --trace 0 | tail -n 1)
    echo "$1 $2 $line" >> "$results"
}
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) = 1 ]; then
        run base "$i"
        run work "$i"
    else
        run work "$i"
        run base "$i"
    fi
done

# The end-to-end metrics with their direction and bound, from
# BENCHMARK.json: one "name better bound" line each.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')

summary=$(echo "$metrics" | awk -v workload="$WORKLOAD" -v pairs="$PAIRS" -v seed="$SEED" -v results="$results" '
# quantile is numpy-style linear interpolation over the sorted a[1..n].
function quantile(a, n, q,    pos, lo) {
    pos = (n - 1) * q
    lo = int(pos)
    if (lo + 1 >= n) return a[n]
    return a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
}
function sortn(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
function list(a, n,    i, s) {
    s = ""
    for (i = 1; i <= n; i++) s = s (i > 1 ? ", " : "") sprintf("%.4f", a[i])
    return "[" s "]"
}
function value(line, m,    s) {
    s = line
    if (!sub(".*\"" m "\":[{]\"value\":", "", s)) return ""
    sub(/[,}].*/, "", s)
    return s + 0
}
BEGIN {
    correct = "true"
    while ((getline line < results) > 0) {
        split(line, f, " ")
        side = f[1]; pair = f[2]
        json = substr(line, length(f[1]) + length(f[2]) + 3)
        if (json !~ /"correct":true/) correct = "false"
        s = json; sub(/.*"failed":/, "", s); sub(/,.*/, "", s)
        failed[side] += s
        raw[side, pair] = json
    }
}
{
    name = $1; better = $2; bound = $3
    nb = 0; nw = 0; nr = 0; wins = 0
    for (i = 1; i <= pairs; i++) {
        b = value(raw["base", i], name); w = value(raw["work", i], name)
        if (b == "" || w == "") continue
        base[++nb] = b; work[++nw] = w
        if (b != 0) ratio[++nr] = w / b
        if ((better == "lower" && w < b) || (better == "higher" && w > b)) wins++
    }
    if (nb == 0) next
    split("", bs); split("", ws)
    for (i = 1; i <= nb; i++) { bs[i] = base[i]; ws[i] = work[i] }
    sortn(bs, nb); sortn(ws, nw); sortn(ratio, nr)
    bq1 = quantile(bs, nb, 0.25); bmed = quantile(bs, nb, 0.5); bq3 = quantile(bs, nb, 0.75)
    wmed = quantile(ws, nw, 0.5)
    spread = bmed != 0 ? (bq3 - bq1) / bmed : 0
    # gain is how far the working median beats the base median, and
    # worse the ratio by which it trails it (0 when it does not).
    sign = better == "lower" ? 1 : -1
    gain = sign * (bmed - wmed)
    worse = bmed != 0 ? sign * (wmed - bmed) / bmed : 0
    gain_shown = 10 * wins >= 9 * nb && gain > bq3 - bq1
    # Every working run beats every base run.
    apart = better == "lower" ? ws[nw] < bs[1] : ws[1] > bs[nb]
    within = spread > bound && !apart ? "\"unresolved\"" : (worse <= bound ? "true" : "false")
    entry[++ne] = sprintf("    \"%s\": {\"parent_q1_median_q3\": [%.4f, %.4f, %.4f], \"current_q1_median_q3\": [%.4f, %.4f, %.4f], \"median_ratio\": %.3f, \"current_better_pairs\": \"%d/%d\", \"parent_iqr_over_median\": %.3f, \"resolved\": %s, \"gain_shown\": %s, \"within_bound\": %s, \"parent_runs\": %s, \"current_runs\": %s}",
        name, bq1, bmed, bq3, quantile(ws, nw, 0.25), wmed, quantile(ws, nw, 0.75),
        quantile(ratio, nr, 0.5), wins, nb, spread, spread > bound ? "false" : "true",
        gain_shown ? "true" : "false", within, list(base, nb), list(work, nw))
}
END {
    printf "\"%s\": {\n    \"seed\": %d, \"pairs\": %d, \"all_correct\": %s, \"failed_ops\": [%d, %d],\n", workload, seed, pairs, correct, failed["base"], failed["work"]
    for (i = 1; i <= ne; i++) printf "%s%s\n", entry[i], i < ne ? "," : ""
    printf "}\n"
}')
echo "$summary"
if [ -n "$OUT" ]; then
    echo "$summary" > "$OUT"
    echo "wrote $OUT" >&2
fi
