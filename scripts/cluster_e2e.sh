#!/usr/bin/env bash
# cluster_e2e.sh — end-to-end proof of multi-daemon queue sharding over
# one shared store: start THREE seqbistd processes on a single
# -data-dir, submit one sweep over every registry circuit to the first,
# SIGKILL a worker daemon while it holds in-flight leases mid-sweep, and
# assert that
#
#   1. the two survivors steal the dead member's leases after the TTL
#      and finish the sweep without any new submission, and
#   2. the sweep summary is bit-identical to the same sweep run on an
#      uninterrupted single (non-cluster) daemon — content-addressed
#      determinism makes the cluster transparent to results.
#
# CI runs this as the `cluster` job; on failure it uploads $WORKDIR
# (daemon logs + data dirs) as an artifact.
#
# Usage: scripts/cluster_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "cluster_e2e: workdir $WORKDIR"

ADDR1=127.0.0.1:18751 # submitter (must survive: it owns the sweep)
ADDR2=127.0.0.1:18752 # worker
ADDR3=127.0.0.1:18753 # worker
ADDR_R=127.0.0.1:18754 # uninterrupted single-daemon reference
LEASE_TTL=2s
# Every registry circuit, with bounds that keep the whole sweep around
# half a minute of single-worker compute (the summary only has to be
# deterministic, not paper-scale).
SWEEP='{"circuits":[{"circuit":"s27"},{"circuit":"s298"},{"circuit":"s344"},{"circuit":"s382"},{"circuit":"s400"},{"circuit":"s526"},{"circuit":"s641"},{"circuit":"s820"},{"circuit":"s1196"},{"circuit":"s1423"},{"circuit":"s1488"},{"circuit":"s5378"},{"circuit":"s35932"}],"config":{"n":2,"seed":1,"atpg_max_len":150,"max_omission_trials":20}}'

go build -o "$WORKDIR/seqbistd" ./cmd/seqbistd

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

# start_daemon leaves the new pid in DAEMON_PID (no command
# substitution: a subshell would strand the pid outside PIDS and the
# cleanup trap would leak daemons across runs).
start_daemon() { # addr data-dir log-file [extra flags...]
    local addr=$1 data=$2 log=$3
    shift 3
    "$WORKDIR/seqbistd" -addr "$addr" -workers 1 \
        -data-dir "$data" "$@" >>"$log" 2>&1 &
    DAEMON_PID=$!
    PIDS+=("$DAEMON_PID")
}

wait_ready() { # addr
    for _ in $(seq 1 100); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "cluster_e2e: daemon on $1 never became healthy" >&2
    return 1
}

metric() { # addr name -> integer (0 when absent)
    curl -sf "http://$1/metrics" | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$' || echo 0
}

sweep_state() { # addr sweep-id
    curl -sf "http://$1/v1/sweeps/$2" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"'
}

normalize() { grep -v '"elapsed_ms"'; }

# --- the cluster ------------------------------------------------------
DATA="$WORKDIR/data-cluster"
start_daemon "$ADDR1" "$DATA" "$WORKDIR/daemon-n1.log" -node-id n1 -lease-ttl "$LEASE_TTL"
PID1=$DAEMON_PID
start_daemon "$ADDR2" "$DATA" "$WORKDIR/daemon-n2.log" -node-id n2 -lease-ttl "$LEASE_TTL"
PID2=$DAEMON_PID
start_daemon "$ADDR3" "$DATA" "$WORKDIR/daemon-n3.log" -node-id n3 -lease-ttl "$LEASE_TTL"
PID3=$DAEMON_PID
wait_ready "$ADDR1"; wait_ready "$ADDR2"; wait_ready "$ADDR3"

SWEEP_ID=$(curl -sf -X POST "http://$ADDR1/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[a-z0-9-]*"' | grep -o 'sweep-[a-z0-9-]*')
echo "cluster_e2e: submitted $SWEEP_ID to n1 (pids $PID1/$PID2/$PID3)"

# Sanity: the members see each other through heartbeats.
for _ in $(seq 1 100); do
    [ "$(metric "$ADDR1" peers)" -ge 2 ] && break
    sleep 0.1
done
if [ "$(metric "$ADDR1" peers)" -lt 2 ]; then
    echo "cluster_e2e: n1 never saw its two peers" >&2
    exit 1
fi

# Kill a worker daemon at a moment it provably has in-flight work: the
# sweep is still running and the victim holds leases with a job in the
# running state.
VICTIM_PID=""
VICTIM_ADDR=""
for _ in $(seq 1 1200); do
    STATE=$(sweep_state "$ADDR1" "$SWEEP_ID" || true)
    if [ "$STATE" != "running" ]; then
        echo "cluster_e2e: sweep left running ($STATE) before the kill window" >&2
        exit 1
    fi
    for cand in "$ADDR2:$PID2" "$ADDR3:$PID3"; do
        addr=${cand%:*}
        pid=${cand##*:}
        if [ "$(metric "$addr" claims_held)" -ge 1 ] && [ "$(metric "$addr" running)" -ge 1 ]; then
            VICTIM_PID=$pid
            VICTIM_ADDR=$addr
            break 2
        fi
    done
    sleep 0.05
done
if [ -z "$VICTIM_PID" ]; then
    echo "cluster_e2e: no worker daemon ever held a running claim" >&2
    exit 1
fi
kill -9 "$VICTIM_PID"
echo "cluster_e2e: SIGKILLed worker on $VICTIM_ADDR (pid $VICTIM_PID) with claims held, sweep still running"
wait "$VICTIM_PID" 2>/dev/null || true

# The survivors must finish the sweep on their own.
for _ in $(seq 1 4200); do
    STATE=$(sweep_state "$ADDR1" "$SWEEP_ID" || true)
    if [ "$STATE" = "done" ]; then break; fi
    if [ "$STATE" = "canceled" ]; then
        echo "cluster_e2e: sweep ended canceled after the kill" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "cluster_e2e: sweep never finished after the kill (state: ${STATE:-unknown})" >&2
    exit 1
fi

SURVIVOR_ADDR=$ADDR2
[ "$VICTIM_ADDR" = "$ADDR2" ] && SURVIVOR_ADDR=$ADDR3
STOLEN=$(( $(metric "$ADDR1" jobs_stolen) + $(metric "$SURVIVOR_ADDR" jobs_stolen) ))
WON1=$(metric "$ADDR1" claims_won)
WON2=$(metric "$SURVIVOR_ADDR" claims_won)
echo "cluster_e2e: sweep done — claims won n1=$WON1 survivor=$WON2, leases stolen=$STOLEN"
if [ "$STOLEN" -lt 1 ]; then
    echo "cluster_e2e: the dead member's leases were never stolen" >&2
    exit 1
fi
if [ "$WON1" -lt 1 ] || [ "$WON2" -lt 1 ]; then
    echo "cluster_e2e: work was not shared across the surviving members" >&2
    exit 1
fi
curl -sf "http://$ADDR1/v1/sweeps/$SWEEP_ID" | normalize >"$WORKDIR/sweep-cluster.json"

# --- the single-daemon reference --------------------------------------
start_daemon "$ADDR_R" "$WORKDIR/data-ref" "$WORKDIR/daemon-ref.log"
wait_ready "$ADDR_R"
REF_ID=$(curl -sf -X POST "http://$ADDR_R/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[0-9]*"' | grep -o 'sweep-[0-9]*')
for _ in $(seq 1 4200); do
    STATE=$(sweep_state "$ADDR_R" "$REF_ID" || true)
    if [ "$STATE" = "done" ]; then break; fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "cluster_e2e: reference sweep never finished" >&2
    exit 1
fi
curl -sf "http://$ADDR_R/v1/sweeps/$REF_ID" | normalize >"$WORKDIR/sweep-reference.json"

# --- compare -----------------------------------------------------------
# Job IDs (namespaced per node) and timestamps legitimately differ;
# member results, coverage numbers, golden MISR signatures, and the
# summary markdown table must be byte-identical.
payload() {
    grep -E '"(vectors|len|window|target_fault|golden_misr|circuit|n|num_faults|detected_by_t0|coverage|raw_t0_len|t0_len|num_sequences|total_len|max_len|load_cycles|at_speed_cycles|memory_bits|hardware_cost|sims|markdown|test_len|detected)"' "$1"
}
payload "$WORKDIR/sweep-cluster.json" >"$WORKDIR/payload-cluster.txt"
payload "$WORKDIR/sweep-reference.json" >"$WORKDIR/payload-reference.txt"
if ! diff -u "$WORKDIR/payload-reference.txt" "$WORKDIR/payload-cluster.txt" >"$WORKDIR/payload.diff"; then
    echo "cluster_e2e: FAIL — cluster sweep differs from single-daemon run:" >&2
    head -50 "$WORKDIR/payload.diff" >&2
    exit 1
fi
if ! grep -q '"golden_misr"' "$WORKDIR/payload-cluster.txt"; then
    echo "cluster_e2e: FAIL — no golden signatures in cluster sweep (empty payload?)" >&2
    exit 1
fi
if ! grep -q '"markdown"' "$WORKDIR/payload-cluster.txt"; then
    echo "cluster_e2e: FAIL — no summary table in cluster sweep" >&2
    exit 1
fi

echo "cluster_e2e: PASS — 3-daemon cluster survived a SIGKILL mid-sweep with a summary bit-identical to a single daemon ($(wc -l <"$WORKDIR/payload-cluster.txt") payload lines compared)"
