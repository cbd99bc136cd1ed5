#!/usr/bin/env bash
# fairness_e2e.sh — end-to-end proof of multi-tenant admission and
# weighted-fair claim scheduling over a shared store: start THREE
# seqbistd processes on one -data-dir with a -tenants file, let tenant
# "flood" (weight 1) saturate the cluster with a full-registry sweep,
# then have tenant "interactive" (weight 8, priority 1) submit small
# jobs, and assert that
#
#   1. interactive work overtakes the flood's FIFO backlog (its job
#      finishes while flood jobs that arrived earlier are still queued),
#   2. every status and durable record carries its tenant — including
#      the sweep after its owning daemon is SIGKILLed and a survivor
#      adopts it, and
#   3. the flood sweep's summary is bit-identical to the same sweep on
#      a single anonymous daemon — fair scheduling reorders work, never
#      results.
#
# CI runs this as the `fairness` job; on failure it uploads $WORKDIR
# (daemon logs + data dirs) as an artifact.
#
# Usage: scripts/fairness_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "fairness_e2e: workdir $WORKDIR"

ADDR1=127.0.0.1:18761  # flood's submitter (killed mid-sweep: adoption)
ADDR2=127.0.0.1:18762  # interactive's submitter (must survive)
ADDR3=127.0.0.1:18763  # worker
ADDR_R=127.0.0.1:18764 # anonymous single-daemon reference
LEASE_TTL=2s
# Same bounded full-registry sweep as cluster_e2e.sh: around half a
# minute of single-worker compute, plenty of backlog for the overtake
# window.
SWEEP='{"circuits":[{"circuit":"s27"},{"circuit":"s298"},{"circuit":"s344"},{"circuit":"s382"},{"circuit":"s400"},{"circuit":"s526"},{"circuit":"s641"},{"circuit":"s820"},{"circuit":"s1196"},{"circuit":"s1423"},{"circuit":"s1488"},{"circuit":"s5378"},{"circuit":"s35932"}],"config":{"n":2,"seed":1,"atpg_max_len":150,"max_omission_trials":20}}'
JOB='{"circuit":"s27","config":{"n":1,"seed":%d,"atpg_max_len":60,"max_omission_trials":5}}'

cat >"$WORKDIR/tenants.json" <<'EOF'
{"tenants":[
  {"name":"flood","key":"akey","weight":1},
  {"name":"interactive","key":"bkey","weight":8,"priority":1}
]}
EOF

go build -o "$WORKDIR/seqbistd" ./cmd/seqbistd

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

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
    echo "fairness_e2e: daemon on $1 never became healthy" >&2
    return 1
}

# tenant_gauge ADDR TENANT FIELD -> integer from the per-tenant metrics
# section (0 when the tenant has no cell yet).
tenant_gauge() {
    curl -sf "http://$1/metrics" |
        tr -d ' \n' | grep -o "\"$2\":{[^}]*}" | head -1 |
        grep -o "\"$3\":[0-9]*" | grep -o '[0-9]*$' || echo 0
}

metric() { # addr name -> integer (0 when absent)
    curl -sf "http://$1/metrics" | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$' || echo 0
}

sweep_state() { # addr sweep-id
    curl -sf "http://$1/v1/sweeps/$2" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"'
}

job_state() { # addr job-id
    curl -sf "http://$1/v1/jobs/$2" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"'
}

normalize() { grep -v '"elapsed_ms"'; }

# --- the multi-tenant cluster -----------------------------------------
DATA="$WORKDIR/data-cluster"
start_daemon "$ADDR1" "$DATA" "$WORKDIR/daemon-n1.log" -node-id n1 -lease-ttl "$LEASE_TTL" -tenants "$WORKDIR/tenants.json"
PID1=$DAEMON_PID
start_daemon "$ADDR2" "$DATA" "$WORKDIR/daemon-n2.log" -node-id n2 -lease-ttl "$LEASE_TTL" -tenants "$WORKDIR/tenants.json"
start_daemon "$ADDR3" "$DATA" "$WORKDIR/daemon-n3.log" -node-id n3 -lease-ttl "$LEASE_TTL" -tenants "$WORKDIR/tenants.json"
wait_ready "$ADDR1"; wait_ready "$ADDR2"; wait_ready "$ADDR3"

# Authentication is enforced once a tenants file is loaded.
UNAUTH=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR1/v1/jobs" \
    -H 'Authorization: Bearer wrong' -d '{"circuit":"s27"}')
if [ "$UNAUTH" != "401" ]; then
    echo "fairness_e2e: bad key answered $UNAUTH, want 401" >&2
    exit 1
fi

SWEEP_ID=$(curl -sf -X POST "http://$ADDR1/v1/sweeps" -H 'Authorization: Bearer akey' -d "$SWEEP" |
    grep -o '"id": *"sweep-[a-z0-9-]*"' | grep -o 'sweep-[a-z0-9-]*')
echo "fairness_e2e: flood submitted $SWEEP_ID to n1"

# Wait for a real flood backlog: members queued beyond what the three
# workers are already running.
BACKLOG=0
for _ in $(seq 1 600); do
    BACKLOG=$(tenant_gauge "$ADDR1" flood queued)
    [ "$BACKLOG" -ge 4 ] && break
    sleep 0.05
done
if [ "$BACKLOG" -lt 4 ]; then
    echo "fairness_e2e: flood backlog never built up (queued=$BACKLOG)" >&2
    exit 1
fi

# The overtake: interactive submits after $BACKLOG flood jobs are
# already queued ahead of it in FIFO order. Under weighted-fair
# scheduling its job must finish while flood work submitted EARLIER is
# still waiting.
# shellcheck disable=SC2059
JOB_ID=$(curl -sf -X POST "http://$ADDR2/v1/jobs" -H 'Authorization: Bearer bkey' \
    -d "$(printf "$JOB" 100)" | grep -o '"id": *"job-[a-z0-9-]*"' | grep -o 'job-[a-z0-9-]*')
echo "fairness_e2e: interactive submitted $JOB_ID behind $BACKLOG queued flood jobs"
STATE=""
for _ in $(seq 1 600); do
    STATE=$(job_state "$ADDR2" "$JOB_ID" || true)
    [ "$STATE" = "done" ] && break
    if [ "$STATE" = "failed" ] || [ "$STATE" = "canceled" ]; then
        echo "fairness_e2e: interactive job ended $STATE" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "fairness_e2e: interactive job never finished (state ${STATE:-unknown})" >&2
    exit 1
fi
STILL_QUEUED=$(tenant_gauge "$ADDR1" flood queued)
if [ "$STILL_QUEUED" -lt 1 ]; then
    echo "fairness_e2e: no flood job left queued when interactive finished — overtake unproven (flood may have drained too fast)" >&2
    exit 1
fi
curl -sf "http://$ADDR2/v1/jobs/$JOB_ID" >"$WORKDIR/job-interactive.json"
if ! grep -q '"tenant": *"interactive"' "$WORKDIR/job-interactive.json"; then
    echo "fairness_e2e: interactive job status lost its tenant" >&2
    exit 1
fi
echo "fairness_e2e: interactive job done with $STILL_QUEUED flood jobs still queued (FIFO would have served them first)"

# Kill the flood sweep's owner while the sweep is still running (it is:
# flood jobs are still queued): a survivor must adopt it WITH its tenant
# attribution. (Before adoption only the owner serves the sweep, so the
# pre-kill check asks n1.)
STATE=$(sweep_state "$ADDR1" "$SWEEP_ID" || true)
if [ "$STATE" != "running" ]; then
    echo "fairness_e2e: flood sweep left running ($STATE) before the kill window" >&2
    exit 1
fi
kill -9 "$PID1"
echo "fairness_e2e: SIGKILLed n1 (pid $PID1), the flood sweep's owner"
wait "$PID1" 2>/dev/null || true

# Two more interactive jobs while the survivors drain the flood and
# adopt its sweep: bounded latency through the churn, not starvation.
for seed in 101 102; do
    # shellcheck disable=SC2059
    JID=$(curl -sf -X POST "http://$ADDR2/v1/jobs" -H 'Authorization: Bearer bkey' \
        -d "$(printf "$JOB" "$seed")" | grep -o '"id": *"job-[a-z0-9-]*"' | grep -o 'job-[a-z0-9-]*')
    for _ in $(seq 1 600); do
        [ "$(job_state "$ADDR2" "$JID" || true)" = "done" ] && break
        sleep 0.1
    done
    if [ "$(job_state "$ADDR2" "$JID")" != "done" ]; then
        echo "fairness_e2e: interactive job $JID (seed $seed) starved behind the flood" >&2
        exit 1
    fi
done

# Whichever survivor adopts the sweep serves it from then on; poll both
# and remember the adopter (as churn_e2e does).
OWNER_ADDR=""
STATE=""
for _ in $(seq 1 4200); do
    for addr in "$ADDR2" "$ADDR3"; do
        st=$(sweep_state "$addr" "$SWEEP_ID" || true)
        if [ -n "$st" ]; then OWNER_ADDR=$addr; STATE=$st; fi
    done
    [ "$STATE" = "done" ] && break
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "fairness_e2e: flood sweep never finished after the kill (state ${STATE:-unknown})" >&2
    exit 1
fi
ADOPTED=$(( $(metric "$ADDR2" sweeps_adopted) + $(metric "$ADDR3" sweeps_adopted) ))
if [ "$ADOPTED" -lt 1 ]; then
    echo "fairness_e2e: no survivor adopted the dead owner's sweep" >&2
    exit 1
fi
curl -sf "http://$OWNER_ADDR/v1/sweeps/$SWEEP_ID" | normalize >"$WORKDIR/sweep-cluster.json"
if ! grep -q '"tenant": *"flood"' "$WORKDIR/sweep-cluster.json"; then
    echo "fairness_e2e: adopted sweep lost its tenant attribution" >&2
    exit 1
fi
echo "fairness_e2e: sweep adopted ($ADOPTED) and finished, still attributed to flood"

# Labeled tenant families on the Prometheus surface. (Fetch to a file
# before grepping: with pipefail, grep -q's early exit can fail curl
# on a body bigger than the pipe buffer.)
curl -sf "http://$ADDR2/metrics?format=prometheus" >"$WORKDIR/prom-n2.txt"
if ! grep -q 'seqbist_tenant_done_total{tenant="interactive"}' "$WORKDIR/prom-n2.txt"; then
    echo "fairness_e2e: no labeled seqbist_tenant_* family for interactive" >&2
    exit 1
fi

# --- the anonymous single-daemon reference ----------------------------
start_daemon "$ADDR_R" "$WORKDIR/data-ref" "$WORKDIR/daemon-ref.log"
wait_ready "$ADDR_R"
REF_ID=$(curl -sf -X POST "http://$ADDR_R/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[0-9]*"' | grep -o 'sweep-[0-9]*')
for _ in $(seq 1 4200); do
    STATE=$(sweep_state "$ADDR_R" "$REF_ID" || true)
    [ "$STATE" = "done" ] && break
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "fairness_e2e: reference sweep never finished" >&2
    exit 1
fi
curl -sf "http://$ADDR_R/v1/sweeps/$REF_ID" | normalize >"$WORKDIR/sweep-reference.json"

# --- compare -----------------------------------------------------------
# Tenant attribution, job IDs, and timestamps legitimately differ; the
# synthesis payload must be byte-identical — scheduling policy must
# never leak into results.
payload() {
    grep -E '"(vectors|len|window|target_fault|golden_misr|circuit|n|num_faults|detected_by_t0|coverage|raw_t0_len|t0_len|num_sequences|total_len|max_len|load_cycles|at_speed_cycles|memory_bits|hardware_cost|sims|markdown|test_len|detected)"' "$1"
}
payload "$WORKDIR/sweep-cluster.json" >"$WORKDIR/payload-cluster.txt"
payload "$WORKDIR/sweep-reference.json" >"$WORKDIR/payload-reference.txt"
if ! diff -u "$WORKDIR/payload-reference.txt" "$WORKDIR/payload-cluster.txt" >"$WORKDIR/payload.diff"; then
    echo "fairness_e2e: FAIL — multi-tenant sweep differs from anonymous single-daemon run:" >&2
    head -50 "$WORKDIR/payload.diff" >&2
    exit 1
fi
if ! grep -q '"golden_misr"' "$WORKDIR/payload-cluster.txt"; then
    echo "fairness_e2e: FAIL — no golden signatures in the flood sweep (empty payload?)" >&2
    exit 1
fi

echo "fairness_e2e: PASS — interactive overtook a $BACKLOG-deep flood backlog, adoption preserved tenant attribution, and the summary is bit-identical to the anonymous reference ($(wc -l <"$WORKDIR/payload-cluster.txt") payload lines compared)"
