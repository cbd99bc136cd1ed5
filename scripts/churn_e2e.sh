#!/usr/bin/env bash
# churn_e2e.sh — end-to-end proof that the segmented store and the
# cluster survive sustained churn: THREE seqbistd processes share one
# -data-dir with an aggressive -compact-bytes (online compaction rounds
# fire continuously under load), a sweep over every registry circuit
# runs while the members are SIGKILLed and restarted in a rolling
# fashion, and finally the sweep's *submitter* is SIGKILLed so a
# survivor must adopt the orphaned sweep (replay its event log, finish
# its members, finalize its summary). Asserts that
#
#   1. a survivor adopts the dead submitter's sweep (sweeps_adopted >= 1)
#      and the sweep finishes without any new submission,
#   2. the summary is bit-identical to the same sweep on an
#      uninterrupted single (non-cluster) daemon, and
#   3. online compaction actually ran (store epoch advanced) and GC kept
#      the total wal/ footprint under a fixed bound despite the churn.
#
# CI runs this as the `churn` job; on failure it uploads $WORKDIR
# (daemon logs + data dirs) as an artifact.
#
# Usage: scripts/churn_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "churn_e2e: workdir $WORKDIR"

ADDR1=127.0.0.1:18761 # submitter (killed mid-sweep: its sweep must be adopted)
ADDR2=127.0.0.1:18762 # worker (rolling-restarted)
ADDR3=127.0.0.1:18763 # worker (rolling-restarted)
ADDR_R=127.0.0.1:18764 # uninterrupted single-daemon reference
LEASE_TTL=2s
# Aggressive compaction and staleness so rounds fire many times within
# the run and dead members stop pinning old generations quickly.
CHURN_FLAGS=(-lease-ttl "$LEASE_TTL" -fsync=false -compact-bytes 32768 -stale-after 6s)
# wal/ must stay bounded no matter how long the churn lasts: segments
# the cluster has folded are deleted by compaction GC. The bound is ~32x
# the compaction threshold — generous slack for the window in which a
# freshly-killed member still pins its last acknowledged generation.
WAL_BOUND=$((1 << 20))
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
    echo "churn_e2e: daemon on $1 never became healthy" >&2
    return 1
}

metric() { # addr name -> integer (0 when absent or daemon down)
    curl -sf "http://$1/metrics" 2>/dev/null | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$' || echo 0
}

sweep_state() { # addr sweep-id (empty when this daemon does not own it)
    curl -sf "http://$1/v1/sweeps/$2" 2>/dev/null | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"' || true
}

# --- the churning cluster ---------------------------------------------
DATA="$WORKDIR/data-churn"
start_daemon "$ADDR1" "$DATA" "$WORKDIR/daemon-n1.log" -node-id n1 "${CHURN_FLAGS[@]}"
PID1=$DAEMON_PID
start_daemon "$ADDR2" "$DATA" "$WORKDIR/daemon-n2.log" -node-id n2 "${CHURN_FLAGS[@]}"
PID2=$DAEMON_PID
start_daemon "$ADDR3" "$DATA" "$WORKDIR/daemon-n3.log" -node-id n3 "${CHURN_FLAGS[@]}"
PID3=$DAEMON_PID
wait_ready "$ADDR1"; wait_ready "$ADDR2"; wait_ready "$ADDR3"

SWEEP_ID=$(curl -sf -X POST "http://$ADDR1/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[a-z0-9-]*"' | grep -o 'sweep-[a-z0-9-]*')
echo "churn_e2e: submitted $SWEEP_ID to n1 (pids $PID1/$PID2/$PID3)"

# Rolling restarts: SIGKILL each worker daemon — preferably while it
# holds claims — and restart it under the same node identity. The
# restarted member recovers from the shared segmented log and rejoins
# the claim loop; survivors steal whatever leases died with it.
rolling_restart() { # addr pid node-id log
    local addr=$1 pid=$2 node=$3 log=$4
    for _ in $(seq 1 100); do
        [ "$(metric "$addr" claims_held)" -ge 1 ] && break
        sleep 0.1
    done
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    echo "churn_e2e: SIGKILLed $node, restarting it"
    sleep 1 # let survivors notice; the lease TTL does the real fencing
    start_daemon "$addr" "$DATA" "$log" -node-id "$node" "${CHURN_FLAGS[@]}"
    wait_ready "$addr"
}
rolling_restart "$ADDR2" "$PID2" n2 "$WORKDIR/daemon-n2.log"
rolling_restart "$ADDR3" "$PID3" n3 "$WORKDIR/daemon-n3.log"

# Kill the submitter while its sweep is provably still running: the
# sweep object (event log, summary aggregation) lives in n1's memory, so
# finishing from here exercises adoption, not just lease stealing.
STATE=$(sweep_state "$ADDR1" "$SWEEP_ID")
if [ "$STATE" != "running" ]; then
    echo "churn_e2e: sweep left running ($STATE) before the submitter kill" >&2
    exit 1
fi
kill -9 "$PID1"
wait "$PID1" 2>/dev/null || true
echo "churn_e2e: SIGKILLed submitter n1 with the sweep still running"

# A survivor must adopt the sweep (it appears under that daemon's
# /v1/sweeps once adopted) and drive it to done.
OWNER_ADDR=""
STATE=""
for _ in $(seq 1 4200); do
    for addr in "$ADDR2" "$ADDR3"; do
        st=$(sweep_state "$addr" "$SWEEP_ID")
        if [ -n "$st" ]; then OWNER_ADDR=$addr; STATE=$st; fi
    done
    [ "$STATE" = "done" ] && break
    if [ "$STATE" = "canceled" ]; then
        echo "churn_e2e: adopted sweep ended canceled" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "churn_e2e: sweep never adopted and finished (state: ${STATE:-unowned})" >&2
    exit 1
fi
ADOPTED=$(( $(metric "$ADDR2" sweeps_adopted) + $(metric "$ADDR3" sweeps_adopted) ))
echo "churn_e2e: sweep done on $OWNER_ADDR (sweeps adopted across survivors: $ADOPTED)"
if [ "$ADOPTED" -lt 1 ]; then
    echo "churn_e2e: no survivor ever adopted the dead submitter's sweep" >&2
    exit 1
fi
curl -sf "http://$OWNER_ADDR/v1/sweeps/$SWEEP_ID" >"$WORKDIR/sweep-churn.json"

# Online compaction must have run: a fresh directory starts at
# generation 1 and the epoch advances only through completed rounds,
# so anything >= 2 proves at least one round finished under churn. GC
# must also have kept the log bounded.
EPOCH=$(metric "$ADDR2" epoch)
WAL_BYTES=$(du -sb "$DATA/wal" | cut -f1)
echo "churn_e2e: store epoch $EPOCH, wal/ footprint $WAL_BYTES bytes (bound $WAL_BOUND)"
if [ "$EPOCH" -lt 2 ]; then
    echo "churn_e2e: no compaction round ever completed under churn" >&2
    exit 1
fi
if [ "$WAL_BYTES" -ge "$WAL_BOUND" ]; then
    echo "churn_e2e: wal/ grew to $WAL_BYTES bytes (bound $WAL_BOUND): compaction GC is not reclaiming" >&2
    exit 1
fi

# --- the single-daemon reference --------------------------------------
start_daemon "$ADDR_R" "$WORKDIR/data-ref" "$WORKDIR/daemon-ref.log"
wait_ready "$ADDR_R"
REF_ID=$(curl -sf -X POST "http://$ADDR_R/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[0-9]*"' | grep -o 'sweep-[0-9]*')
for _ in $(seq 1 4200); do
    STATE=$(sweep_state "$ADDR_R" "$REF_ID")
    if [ "$STATE" = "done" ]; then break; fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "churn_e2e: reference sweep never finished" >&2
    exit 1
fi
curl -sf "http://$ADDR_R/v1/sweeps/$REF_ID" >"$WORKDIR/sweep-reference.json"

# --- compare -----------------------------------------------------------
# Job IDs (namespaced per node), timestamps, and cache-hit flags
# legitimately differ; member results, coverage numbers, golden MISR
# signatures, and the summary markdown table must be byte-identical.
payload() {
    grep -E '"(vectors|len|window|target_fault|golden_misr|circuit|n|num_faults|detected_by_t0|coverage|raw_t0_len|t0_len|num_sequences|total_len|max_len|load_cycles|at_speed_cycles|memory_bits|hardware_cost|sims|markdown|test_len|detected)"' "$1"
}
payload "$WORKDIR/sweep-churn.json" >"$WORKDIR/payload-churn.txt"
payload "$WORKDIR/sweep-reference.json" >"$WORKDIR/payload-reference.txt"
if ! diff -u "$WORKDIR/payload-reference.txt" "$WORKDIR/payload-churn.txt" >"$WORKDIR/payload.diff"; then
    echo "churn_e2e: FAIL — churned sweep differs from single-daemon run:" >&2
    head -50 "$WORKDIR/payload.diff" >&2
    exit 1
fi
if ! grep -q '"golden_misr"' "$WORKDIR/payload-churn.txt"; then
    echo "churn_e2e: FAIL — no golden signatures in churned sweep (empty payload?)" >&2
    exit 1
fi
if ! grep -q '"markdown"' "$WORKDIR/payload-churn.txt"; then
    echo "churn_e2e: FAIL — no summary table in churned sweep" >&2
    exit 1
fi

echo "churn_e2e: PASS — rolling restarts + submitter kill: sweep adopted, summary bit-identical to a single daemon, wal/ bounded at $WAL_BYTES bytes after epoch $EPOCH"
