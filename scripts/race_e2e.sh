#!/usr/bin/env bash
# race_e2e.sh — end-to-end proof of cluster-raced strategy sweeps: start
# THREE seqbistd processes on one shared -data-dir, submit a
# strategy=race sweep to the first, SIGKILL that owner as soon as one of
# its race legs is running — so a survivor must adopt the sweep and
# decide its racing members from the legs already on record — and
# assert that
#
#   1. every racing member decides, adopting one winning leg per circuit
#      (the sweep finishes "done" on the adopting survivor with one kept
#      result per member), and
#   2. each kept result is bit-identical to the SAME circuit synthesized
#      with the winning strategy alone on an independent single daemon,
#      and that winner is exactly what the canonical race comparator
#      (coverage desc, then total/max stored length, then |S|, portfolio
#      order breaking ties) picks over all four single-strategy runs.
#
# CI runs this as the `race` job; on failure it uploads $WORKDIR
# (daemon logs + data dirs) as an artifact.
#
# Usage: scripts/race_e2e.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR=${1:-$(mktemp -d)}
mkdir -p "$WORKDIR"
echo "race_e2e: workdir $WORKDIR"

ADDR1=127.0.0.1:18761 # submitter (owns the sweep until it is killed)
ADDR2=127.0.0.1:18762 # worker; one survivor adopts the sweep
ADDR3=127.0.0.1:18763 # worker
ADDR_R=127.0.0.1:18764 # independent single-strategy reference daemon
LEASE_TTL=2s
PORTFOLIO="greedy restart anneal genetic"
CIRCUITS="s298 s344"
CONFIG='"n":2,"seed":1,"atpg_max_len":150,"max_omission_trials":20'
SWEEP='{"circuits":[{"circuit":"s298"},{"circuit":"s344"}],"config":{'$CONFIG',"strategy":"race"}}'

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
    echo "race_e2e: daemon on $1 never became healthy" >&2
    return 1
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

stat_of() { # file json-key -> value
    grep -o "\"$2\": *[0-9.]*" "$1" | head -1 | grep -o '[0-9.]*$' || echo 0
}

# --- the racing cluster ------------------------------------------------
DATA="$WORKDIR/data-cluster"
start_daemon "$ADDR1" "$DATA" "$WORKDIR/daemon-n1.log" -node-id n1 -lease-ttl "$LEASE_TTL"
N1_PID=$DAEMON_PID
start_daemon "$ADDR2" "$DATA" "$WORKDIR/daemon-n2.log" -node-id n2 -lease-ttl "$LEASE_TTL"
start_daemon "$ADDR3" "$DATA" "$WORKDIR/daemon-n3.log" -node-id n3 -lease-ttl "$LEASE_TTL"
wait_ready "$ADDR1"; wait_ready "$ADDR2"; wait_ready "$ADDR3"

SWEEP_ID=$(curl -sf -X POST "http://$ADDR1/v1/sweeps" -d "$SWEEP" |
    grep -o '"id": *"sweep-[a-z0-9-]*"' | grep -o 'sweep-[a-z0-9-]*')
echo "race_e2e: submitted race sweep $SWEEP_ID over {$CIRCUITS} to n1"

# Kill the owner mid-race: as soon as n1 reports a running leg, no race
# can have decided yet (a member decides only once all four legs land).
for _ in $(seq 1 500); do
    if curl -sf "http://$ADDR1/v1/jobs" | grep -q '"state": *"running"'; then break; fi
    sleep 0.02
done
if [ "$(sweep_state "$ADDR1" "$SWEEP_ID" || true)" != "running" ]; then
    echo "race_e2e: sweep left running before n1 could be killed mid-race" >&2
    exit 1
fi
kill -9 "$N1_PID"
echo "race_e2e: SIGKILLed the owner n1 with a race leg running"

# A survivor adopts the sweep once n1's heartbeat is stale (3x the lease
# TTL); the adopter is whichever one serves it.
OWNER=
for _ in $(seq 1 1800); do
    for ADDR in "$ADDR2" "$ADDR3"; do
        STATE=$(sweep_state "$ADDR" "$SWEEP_ID" || true)
        if [ -n "$STATE" ]; then OWNER=$ADDR; break; fi
    done
    if [ "$STATE" = "done" ]; then break; fi
    if [ "$STATE" = "failed" ] || [ "$STATE" = "canceled" ]; then
        echo "race_e2e: race sweep ended $STATE" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$STATE" != "done" ]; then
    echo "race_e2e: race sweep never finished (state: ${STATE:-unknown})" >&2
    exit 1
fi

curl -sf "http://$OWNER/v1/sweeps/$SWEEP_ID" >"$WORKDIR/sweep-race.json"
RACES=$(metric "$OWNER" races)
ADOPTED=$(metric "$OWNER" sweeps_adopted)
WON2=$(metric "$ADDR2" claims_won); WON3=$(metric "$ADDR3" claims_won)
echo "race_e2e: sweep done on $OWNER — adopted=$ADOPTED, races decided=$RACES, claims won n2=$WON2 n3=$WON3 (n1 killed)"
if [ "$ADOPTED" -lt 1 ]; then
    echo "race_e2e: $OWNER serves the sweep but adopted none" >&2
    exit 1
fi
if [ "$RACES" -lt 2 ]; then
    echo "race_e2e: expected 2 decided races on the sweep's owner, saw $RACES" >&2
    exit 1
fi
# Every leg was on record before the kill (the fan-out precedes the
# submit response), so the adopter re-attaches the races to those legs
# and submits no job of its own.
OWNER_NODE=n2
if [ "$OWNER" = "$ADDR3" ]; then OWNER_NODE=n3; fi
MINTED=$(curl -sf "http://$OWNER/v1/jobs" | { grep -o "\"id\": *\"job-$OWNER_NODE-" || true; } | wc -l)
if [ "$MINTED" -ne 0 ]; then
    echo "race_e2e: the adopter minted $MINTED leg jobs instead of re-attaching the legs on record" >&2
    exit 1
fi

# The decided members adopt their winning legs' job IDs; fetch each kept
# result individually so the per-member payloads don't interleave.
mapfile -t MEMBER_JOBS < <(grep -o '"job_id": *"[a-z0-9-]*"' "$WORKDIR/sweep-race.json" | grep -o 'job-[a-z0-9-]*')
if [ "${#MEMBER_JOBS[@]}" -ne 2 ]; then
    echo "race_e2e: expected 2 adopted member job IDs, got ${#MEMBER_JOBS[@]}" >&2
    exit 1
fi

# --- the single-strategy reference -------------------------------------
start_daemon "$ADDR_R" "$WORKDIR/data-ref" "$WORKDIR/daemon-ref.log"
wait_ready "$ADDR_R"

run_reference() { # circuit strategy -> result JSON on stdout
    local id
    id=$(curl -sf -X POST "http://$ADDR_R/v1/jobs" \
        -d '{"circuit":"'"$1"'","config":{'$CONFIG',"strategy":"'"$2"'"}}' |
        grep -o '"id": *"job-[0-9]*"' | grep -o 'job-[0-9]*')
    for _ in $(seq 1 1800); do
        local js
        js=$(job_state "$ADDR_R" "$id" || true)
        if [ "$js" = "done" ]; then
            curl -sf "http://$ADDR_R/v1/jobs/$id/result"
            return 0
        fi
        if [ "$js" = "failed" ]; then
            echo "race_e2e: reference $1/$2 failed" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "race_e2e: reference $1/$2 never finished" >&2
    return 1
}

IDX=0
for CIRCUIT in $CIRCUITS; do
    KEPT_JOB=${MEMBER_JOBS[$IDX]}
    curl -sf "http://$OWNER/v1/jobs/$KEPT_JOB/result" >"$WORKDIR/kept-$CIRCUIT.json"
    KEPT_STRAT=$(grep -o '"strategy": *"[a-z]*"' "$WORKDIR/kept-$CIRCUIT.json" | head -1 | grep -o '[a-z]*"$' | tr -d '"')
    if [ -z "$KEPT_STRAT" ]; then
        echo "race_e2e: kept result for $CIRCUIT names no strategy" >&2
        exit 1
    fi

    # All four strategies run alone on the reference daemon; the race
    # comparator must pick exactly the strategy the cluster kept.
    : >"$WORKDIR/rows-$CIRCUIT.txt"
    for S in $PORTFOLIO; do
        run_reference "$CIRCUIT" "$S" >"$WORKDIR/ref-$CIRCUIT-$S.json"
        printf '%s %s %s %s %s\n' "$S" \
            "$(stat_of "$WORKDIR/ref-$CIRCUIT-$S.json" coverage)" \
            "$(stat_of "$WORKDIR/ref-$CIRCUIT-$S.json" total_len)" \
            "$(stat_of "$WORKDIR/ref-$CIRCUIT-$S.json" max_len)" \
            "$(stat_of "$WORKDIR/ref-$CIRCUIT-$S.json" num_sequences)" \
            >>"$WORKDIR/rows-$CIRCUIT.txt"
    done
    BEST=$(awk '
        NR == 1 { best = $1; cov = $2; tot = $3; max = $4; num = $5; next }
        $2 > cov || ($2 == cov && ($3 < tot || ($3 == tot && ($4 < max || ($4 == max && $5 < num))))) {
            best = $1; cov = $2; tot = $3; max = $4; num = $5
        }
        END { print best }' "$WORKDIR/rows-$CIRCUIT.txt")
    echo "race_e2e: $CIRCUIT kept=$KEPT_STRAT comparator-best=$BEST"
    cat "$WORKDIR/rows-$CIRCUIT.txt" | sed 's/^/race_e2e:   /'
    if [ "$KEPT_STRAT" != "$BEST" ]; then
        echo "race_e2e: FAIL — cluster kept $KEPT_STRAT but the comparator picks $BEST for $CIRCUIT" >&2
        exit 1
    fi
    if ! diff -u <(normalize <"$WORKDIR/ref-$CIRCUIT-$KEPT_STRAT.json") \
        <(normalize <"$WORKDIR/kept-$CIRCUIT.json") >"$WORKDIR/result-$CIRCUIT.diff"; then
        echo "race_e2e: FAIL — kept $CIRCUIT result differs from the single-strategy run:" >&2
        head -30 "$WORKDIR/result-$CIRCUIT.diff" >&2
        exit 1
    fi
    IDX=$((IDX + 1))
done

echo "race_e2e: PASS — 3-daemon race sweep, adopted after its owner was killed mid-race, kept the comparator-best strategy per circuit, bit-identical to single-strategy runs"
