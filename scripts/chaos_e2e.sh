#!/usr/bin/env bash
# chaos_e2e.sh — end-to-end proof of degraded-mode cluster operation:
# start THREE seqbistd processes on a single -data-dir, one of them
# (n2) with -fault-enospc-flag pointed at a flag file, submit a sweep,
# and touch the flag while n2 provably holds running leases — every
# store write on n2 now fails with ENOSPC, as if its disk filled. Then
# assert that
#
#   1. n2 degrades instead of crashing: /metrics reports
#      store.degraded, /readyz answers 503 with Retry-After, new
#      submissions to n2 bounce with 503 + Retry-After, and /healthz
#      stays 200 (the process is alive and draining in-flight work);
#   2. the healthy members see the degradation (cluster.degraded_peers)
#      and complete the sweep without it, with a summary bit-identical
#      to an uninterrupted single-daemon run; and
#   3. once the flag is removed ("space freed"), n2's probe replays its
#      parked records and rejoins: degraded back to 0, parked_records 0,
#      /readyz 200.
#
# CI runs this as the `chaos` job; on failure it uploads $WORKDIR
# (daemon logs + data dirs) as an artifact.
#
# Usage: scripts/chaos_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "chaos_e2e: workdir $WORKDIR"

ADDR1=127.0.0.1:18761 # submitter (healthy)
ADDR2=127.0.0.1:18762 # the victim: its "disk" fills mid-sweep
ADDR3=127.0.0.1:18763 # worker (healthy)
ADDR_R=127.0.0.1:18764 # uninterrupted single-daemon reference
LEASE_TTL=2s
FLAG="$WORKDIR/enospc.flag"
# Every registry circuit, bounded to around half a minute of
# single-worker compute — enough overlap that n2 reliably holds
# running leases when the flag lands.
SWEEP='{"circuits":[{"circuit":"s27"},{"circuit":"s298"},{"circuit":"s344"},{"circuit":"s382"},{"circuit":"s400"},{"circuit":"s526"},{"circuit":"s641"},{"circuit":"s820"},{"circuit":"s1196"},{"circuit":"s1423"},{"circuit":"s1488"},{"circuit":"s5378"},{"circuit":"s35932"}],"config":{"n":2,"seed":1,"atpg_max_len":150,"max_omission_trials":20}}'

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
    echo "chaos_e2e: daemon on $1 never became healthy" >&2
    return 1
}

metric() { # addr name -> integer (0 when absent)
    curl -sf "http://$1/metrics" | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$' || echo 0
}

degraded() { # addr -> true|false (the store snapshot's boolean)
    curl -sf "http://$1/metrics" | grep -o '"degraded": *\(true\|false\)' | head -1 | grep -o 'true\|false' || echo false
}

http_code() { # method url [body]
    if [ $# -ge 3 ]; then
        curl -s -o /dev/null -w '%{http_code}' -X "$1" "$2" -d "$3"
    else
        curl -s -o /dev/null -w '%{http_code}' -X "$1" "$2"
    fi
}

sweep_state() { # addr sweep-id
    curl -sf "http://$1/v1/sweeps/$2" | grep -o '"state": *"[a-z]*"' | head -1 | grep -o '[a-z]*"$' | tr -d '"'
}

normalize() { grep -v '"elapsed_ms"'; }

# --- the cluster ------------------------------------------------------
DATA="$WORKDIR/data-cluster"
start_daemon "$ADDR1" "$DATA" "$WORKDIR/daemon-n1.log" -node-id n1 -lease-ttl "$LEASE_TTL"
start_daemon "$ADDR2" "$DATA" "$WORKDIR/daemon-n2.log" -node-id n2 -lease-ttl "$LEASE_TTL" \
    -fault-enospc-flag "$FLAG" -probe-interval 500ms
start_daemon "$ADDR3" "$DATA" "$WORKDIR/daemon-n3.log" -node-id n3 -lease-ttl "$LEASE_TTL"
wait_ready "$ADDR1"; wait_ready "$ADDR2"; wait_ready "$ADDR3"

SWEEP_ID=$(curl -sf -X POST "http://$ADDR1/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[a-z0-9-]*"' | grep -o 'sweep-[a-z0-9-]*')
echo "chaos_e2e: submitted $SWEEP_ID to n1"

# Fill n2's "disk" at a moment it provably has in-flight work.
FILLED=""
for _ in $(seq 1 1200); do
    STATE=$(sweep_state "$ADDR1" "$SWEEP_ID" || true)
    if [ "$STATE" != "running" ]; then
        echo "chaos_e2e: sweep left running ($STATE) before the fault window" >&2
        exit 1
    fi
    if [ "$(metric "$ADDR2" claims_held)" -ge 1 ] && [ "$(metric "$ADDR2" running)" -ge 1 ]; then
        touch "$FLAG"
        FILLED=yes
        break
    fi
    sleep 0.05
done
if [ -z "$FILLED" ]; then
    echo "chaos_e2e: n2 never held a running claim" >&2
    exit 1
fi
echo "chaos_e2e: ENOSPC flag up — n2's store writes now fail, sweep still running"

# n2 must degrade (its next heartbeat write fails), not crash.
for _ in $(seq 1 100); do
    [ "$(degraded "$ADDR2")" = "true" ] && break
    sleep 0.1
done
if [ "$(degraded "$ADDR2")" != "true" ]; then
    echo "chaos_e2e: n2 never reported store.degraded" >&2
    exit 1
fi
if ! kill -0 "${PIDS[1]}" 2>/dev/null; then
    echo "chaos_e2e: n2 crashed instead of degrading" >&2
    exit 1
fi

# The degraded surface: readyz 503, writes 503 + Retry-After, healthz 200.
CODE=$(http_code GET "http://$ADDR2/readyz")
if [ "$CODE" != "503" ]; then
    echo "chaos_e2e: degraded /readyz answered $CODE, want 503" >&2
    exit 1
fi
RESP=$(curl -s -D - -o /dev/null -X POST "http://$ADDR2/v1/jobs" -d '{"circuit":"s27","config":{"n":2}}')
if ! echo "$RESP" | head -1 | grep -q 503; then
    echo "chaos_e2e: degraded POST /v1/jobs did not answer 503:" >&2
    echo "$RESP" | head -1 >&2
    exit 1
fi
if ! echo "$RESP" | grep -qi '^retry-after:'; then
    echo "chaos_e2e: degraded 503 carried no Retry-After header" >&2
    exit 1
fi
CODE=$(http_code GET "http://$ADDR2/healthz")
if [ "$CODE" != "200" ]; then
    echo "chaos_e2e: degraded /healthz answered $CODE, want 200 (liveness)" >&2
    exit 1
fi
echo "chaos_e2e: n2 degraded — readyz 503, writes 503 + Retry-After, healthz 200"

# Under a *total* write outage n2 cannot even land its Degraded
# heartbeat in the shared store (the flag covers every mutating op), so
# the healthy members see it the way they see a dead peer: heartbeat
# staleness and lease expiry. The proactive Degraded-heartbeat steal —
# for partial outages where heartbeats still land — is pinned by
# TestClaimDegradedHolderStolen at the store layer. Here the survivors
# must steal n2's expired leases and finish the sweep without it.
for _ in $(seq 1 4200); do
    STATE=$(sweep_state "$ADDR1" "$SWEEP_ID" || true)
    if [ "$STATE" = "done" ]; then break; fi
    if [ "$STATE" = "canceled" ]; then
        echo "chaos_e2e: sweep ended canceled under the fault" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "chaos_e2e: sweep never finished with n2 degraded (state: ${STATE:-unknown})" >&2
    exit 1
fi
STOLEN=$(( $(metric "$ADDR1" jobs_stolen) + $(metric "$ADDR3" jobs_stolen) ))
if [ "$STOLEN" -lt 1 ]; then
    echo "chaos_e2e: the degraded member's leases were never stolen" >&2
    exit 1
fi
PARKED=$(metric "$ADDR2" parked_records)
echo "chaos_e2e: sweep done on the healthy members (stolen=$STOLEN, n2 parked_records=$PARKED)"
curl -sf "http://$ADDR1/v1/sweeps/$SWEEP_ID" | normalize >"$WORKDIR/sweep-chaos.json"

# --- space frees: n2 must rejoin --------------------------------------
rm -f "$FLAG"
for _ in $(seq 1 100); do
    [ "$(degraded "$ADDR2")" = "false" ] && break
    sleep 0.1
done
if [ "$(degraded "$ADDR2")" != "false" ]; then
    echo "chaos_e2e: n2 never recovered after the flag was removed" >&2
    exit 1
fi
if [ "$(metric "$ADDR2" parked_records)" -ne 0 ]; then
    echo "chaos_e2e: n2 recovered with records still parked" >&2
    exit 1
fi
CODE=$(http_code GET "http://$ADDR2/readyz")
if [ "$CODE" != "200" ]; then
    echo "chaos_e2e: recovered /readyz answered $CODE, want 200" >&2
    exit 1
fi
# And it takes work again.
CODE=$(http_code POST "http://$ADDR2/v1/jobs" '{"circuit":"s27","config":{"n":2,"seed":1,"atpg_max_len":150,"max_omission_trials":20}}')
if [ "$CODE" != "202" ] && [ "$CODE" != "200" ]; then
    echo "chaos_e2e: recovered n2 refused a submission ($CODE)" >&2
    exit 1
fi
echo "chaos_e2e: n2 rejoined — degraded=false, parked_records=0, accepting work"

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
    echo "chaos_e2e: reference sweep never finished" >&2
    exit 1
fi
curl -sf "http://$ADDR_R/v1/sweeps/$REF_ID" | normalize >"$WORKDIR/sweep-reference.json"

# --- compare -----------------------------------------------------------
# Job IDs and timestamps legitimately differ; member results, coverage
# numbers, golden MISR signatures, and the summary markdown table must
# be byte-identical — a degraded peer must be invisible in the results.
payload() {
    grep -E '"(vectors|len|window|target_fault|golden_misr|circuit|n|num_faults|detected_by_t0|coverage|raw_t0_len|t0_len|num_sequences|total_len|max_len|load_cycles|at_speed_cycles|memory_bits|hardware_cost|sims|markdown|test_len|detected)"' "$1"
}
payload "$WORKDIR/sweep-chaos.json" >"$WORKDIR/payload-chaos.txt"
payload "$WORKDIR/sweep-reference.json" >"$WORKDIR/payload-reference.txt"
if ! diff -u "$WORKDIR/payload-reference.txt" "$WORKDIR/payload-chaos.txt" >"$WORKDIR/payload.diff"; then
    echo "chaos_e2e: FAIL — chaos sweep differs from single-daemon run:" >&2
    head -50 "$WORKDIR/payload.diff" >&2
    exit 1
fi
if ! grep -q '"golden_misr"' "$WORKDIR/payload-chaos.txt"; then
    echo "chaos_e2e: FAIL — no golden signatures in chaos sweep (empty payload?)" >&2
    exit 1
fi
if ! grep -q '"markdown"' "$WORKDIR/payload-chaos.txt"; then
    echo "chaos_e2e: FAIL — no summary table in chaos sweep" >&2
    exit 1
fi

echo "chaos_e2e: PASS — one member's disk filled mid-sweep; it degraded honestly (503 + Retry-After, healthz alive), the survivors finished bit-identical to a healthy run, and it rejoined once space freed ($(wc -l <"$WORKDIR/payload-chaos.txt") payload lines compared)"
