#!/usr/bin/env bash
# recovery_e2e.sh — end-to-end crash-recovery proof for the persistent
# daemon: start seqbistd with a data directory, submit a batch sweep,
# SIGKILL the daemon while the sweep is mid-flight, restart it on the
# same directory, and assert that
#
#   1. the restarted daemon finishes the sweep on its own, and
#   2. every member result and the summary are bit-identical to the
#      same sweep run on an uninterrupted daemon (modulo elapsed_ms,
#      the one wall-clock field), and
#   3. a directory in the retired pre-segmentation format (a single-file
#      wal.log) is refused: the daemon exits non-zero within seconds,
#      names wal.log on stderr, and leaves the file unchanged.
#
# CI runs this as the `recovery` job; on failure it uploads $WORKDIR
# (daemon logs + both data directories) as an artifact.
#
# Usage: scripts/recovery_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "recovery_e2e: workdir $WORKDIR"

ADDR_A=127.0.0.1:18741 # crashed-and-recovered daemon
ADDR_B=127.0.0.1:18742 # uninterrupted reference daemon
# s27 finishes in milliseconds (so there is committed progress to
# preserve almost immediately); the remaining members give the kill loop
# a multi-second window in which the sweep is still running.
SWEEP='{"circuits":[{"circuit":"s27"},{"circuit":"s298"},{"circuit":"s344"},{"circuit":"s382"},{"circuit":"s526"},{"circuit":"s641"},{"circuit":"s820"}],"config":{"n":2,"seed":1,"atpg_max_len":400,"max_omission_trials":60}}'

go build -o "$WORKDIR/seqbistd" ./cmd/seqbistd

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

# start_daemon leaves the new pid in DAEMON_PID (no command
# substitution: a subshell would strand the pid outside PIDS and the
# cleanup trap would leak daemons across runs).
start_daemon() { # addr data-dir log-file
    "$WORKDIR/seqbistd" -addr "$1" -workers 1 -data-dir "$2" \
        >>"$3" 2>&1 &
    DAEMON_PID=$!
    PIDS+=("$DAEMON_PID")
}

wait_ready() { # addr
    for _ in $(seq 1 100); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "recovery_e2e: daemon on $1 never became healthy" >&2
    return 1
}

sweep_state() { # addr sweep-id
    curl -sf "http://$1/v1/sweeps/$2" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"'
}

# normalize strips the one nondeterministic field so the comparison is
# bit-exact on everything that matters.
normalize() { grep -v '"elapsed_ms"'; }

# --- run A: crash mid-sweep, recover -----------------------------------
start_daemon "$ADDR_A" "$WORKDIR/data-a" "$WORKDIR/daemon-a.log"
PID_A=$DAEMON_PID
wait_ready "$ADDR_A"

SWEEP_ID=$(curl -sf -X POST "http://$ADDR_A/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[0-9]*"' | grep -o 'sweep-[0-9]*')
echo "recovery_e2e: submitted $SWEEP_ID on daemon A (pid $PID_A)"

# Wait until at least one member is done (there is real progress to
# preserve) while the sweep as a whole is still running, then SIGKILL.
KILLED=0
for _ in $(seq 1 600); do
    STATUS=$(curl -sf "http://$ADDR_A/v1/sweeps/$SWEEP_ID" || true)
    STATE=$(echo "$STATUS" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"')
    DONE_MEMBERS=$(echo "$STATUS" | grep -c '"state": *"done"' || true)
    if [ "$STATE" != "running" ]; then
        echo "recovery_e2e: sweep finished before the kill ($STATE); circuits too fast for this host" >&2
        exit 1
    fi
    if [ "$DONE_MEMBERS" -ge 1 ]; then
        kill -9 "$PID_A"
        KILLED=1
        echo "recovery_e2e: SIGKILLed daemon A with $DONE_MEMBERS member(s) done, sweep still running"
        break
    fi
    sleep 0.05
done
if [ "$KILLED" -ne 1 ]; then
    echo "recovery_e2e: sweep never made progress" >&2
    exit 1
fi
wait "$PID_A" 2>/dev/null || true

# Restart on the same data directory; the daemon must finish the sweep
# without any new submission.
start_daemon "$ADDR_A" "$WORKDIR/data-a" "$WORKDIR/daemon-a.log"
wait_ready "$ADDR_A"
RECOVERED=$(curl -sf "http://$ADDR_A/metrics" | grep -o '"orphans_requeued": *[0-9]*' | grep -o '[0-9]*')
echo "recovery_e2e: restarted daemon A, orphans_requeued=$RECOVERED"
if [ "${RECOVERED:-0}" -lt 1 ]; then
    echo "recovery_e2e: restarted daemon requeued nothing" >&2
    exit 1
fi

for _ in $(seq 1 1200); do
    STATE=$(sweep_state "$ADDR_A" "$SWEEP_ID" || true)
    if [ "$STATE" = "done" ]; then break; fi
    if [ "$STATE" = "canceled" ]; then
        echo "recovery_e2e: recovered sweep ended canceled" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "recovery_e2e: recovered sweep never finished (state: ${STATE:-unknown})" >&2
    exit 1
fi
curl -sf "http://$ADDR_A/v1/sweeps/$SWEEP_ID" | normalize >"$WORKDIR/sweep-recovered.json"

# --- run B: the uninterrupted reference --------------------------------
start_daemon "$ADDR_B" "$WORKDIR/data-b" "$WORKDIR/daemon-b.log"
wait_ready "$ADDR_B"
REF_ID=$(curl -sf -X POST "http://$ADDR_B/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[0-9]*"' | grep -o 'sweep-[0-9]*')
for _ in $(seq 1 1200); do
    STATE=$(sweep_state "$ADDR_B" "$REF_ID" || true)
    if [ "$STATE" = "done" ]; then break; fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "recovery_e2e: reference sweep never finished" >&2
    exit 1
fi
curl -sf "http://$ADDR_B/v1/sweeps/$REF_ID" | normalize >"$WORKDIR/sweep-reference.json"

# --- compare -----------------------------------------------------------
# Job IDs and timestamps legitimately differ between the two daemons;
# member results, coverage numbers, golden MISR signatures, and the
# summary markdown must not. Compare only those payload lines.
payload() {
    grep -E '"(vectors|len|window|target_fault|golden_misr|circuit|n|num_faults|detected_by_t0|coverage|raw_t0_len|t0_len|num_sequences|total_len|max_len|load_cycles|at_speed_cycles|memory_bits|hardware_cost|sims|markdown|test_len|detected)"' "$1"
}
payload "$WORKDIR/sweep-recovered.json" >"$WORKDIR/payload-recovered.txt"
payload "$WORKDIR/sweep-reference.json" >"$WORKDIR/payload-reference.txt"
if ! diff -u "$WORKDIR/payload-reference.txt" "$WORKDIR/payload-recovered.txt" >"$WORKDIR/payload.diff"; then
    echo "recovery_e2e: FAIL — recovered sweep differs from uninterrupted run:" >&2
    head -50 "$WORKDIR/payload.diff" >&2
    exit 1
fi
if ! grep -q '"golden_misr"' "$WORKDIR/payload-recovered.txt"; then
    echo "recovery_e2e: FAIL — no golden signatures in recovered sweep (empty payload?)" >&2
    exit 1
fi

# --- refusal of a pre-segmentation directory ---------------------------
# The store reads only the segmented wal/ layout. Skipping an old
# wal.log would drop acknowledged records, so the daemon must refuse the
# directory outright and touch nothing in it.
LEGACY="$WORKDIR/data-legacy"
mkdir -p "$LEGACY"
printf '%s\n' 'c35050a3 {"lsn":1,"t":"job","d":{"id":"job-000001","state":"queued"}}' >"$LEGACY/wal.log"
SUM_BEFORE=$(sha256sum <"$LEGACY/wal.log")
RC=0
timeout 5 "$WORKDIR/seqbistd" -addr 127.0.0.1:18743 -workers 1 -data-dir "$LEGACY" \
    >"$WORKDIR/daemon-legacy.out" 2>"$WORKDIR/daemon-legacy.err" || RC=$?
if [ "$RC" -eq 0 ] || [ "$RC" -eq 124 ]; then
    echo "recovery_e2e: FAIL — daemon did not refuse a wal.log directory (exit $RC)" >&2
    exit 1
fi
if ! grep -q 'wal\.log' "$WORKDIR/daemon-legacy.err"; then
    echo "recovery_e2e: FAIL — refusal does not name wal.log:" >&2
    cat "$WORKDIR/daemon-legacy.err" >&2
    exit 1
fi
if [ "$(sha256sum <"$LEGACY/wal.log")" != "$SUM_BEFORE" ]; then
    echo "recovery_e2e: FAIL — refused daemon changed wal.log" >&2
    exit 1
fi
echo "recovery_e2e: pre-segmentation directory refused (exit $RC), wal.log unchanged"

echo "recovery_e2e: PASS — recovered sweep bit-identical to uninterrupted run ($(wc -l <"$WORKDIR/payload-recovered.txt") payload lines compared)"
