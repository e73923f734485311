#!/bin/sh
# smoke.sh — end-to-end smoke test of spotwebd and its observability surface.
#
# Boots the daemon on localhost ports, drives traffic through the load
# balancer, asserts /healthz answers, /metrics exposes nonzero request
# counters and latency buckets, /events answers, and that SIGTERM produces
# a clean graceful shutdown (exit 0) with a final snapshot on stderr.
#
# Requires: go, curl. Exits nonzero on any failed assertion.
set -eu

LB_PORT="${LB_PORT:-18080}"
MON_PORT="${MON_PORT:-18081}"
RUNTIME="${RUNTIME:-15}"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/spotwebd"
LOG="$(mktemp)"

cleanup() {
    [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$BINDIR"
    rm -f "$LOG"
}
trap cleanup EXIT

echo "==> building spotwebd"
go build -o "$BIN" ./cmd/spotwebd

echo "==> starting spotwebd (lb :$LB_PORT, monitor :$MON_PORT, ${RUNTIME}s)"
"$BIN" -listen "127.0.0.1:$LB_PORT" -monitor "127.0.0.1:$MON_PORT" \
    -interval 2s -warning 2s -risk 2>"$LOG" &
PID=$!

# Wait for the monitor endpoint to come up (the LB starts with it).
i=0
until curl -fsS "http://127.0.0.1:$MON_PORT/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: /healthz never came up" >&2
        cat "$LOG" >&2
        exit 1
    fi
    kill -0 "$PID" 2>/dev/null || { echo "FAIL: spotwebd died at boot" >&2; cat "$LOG" >&2; exit 1; }
    sleep 0.2
done
echo "==> /healthz ok"

# Let the control loop run a couple of planning intervals and boot backends,
# driving a trickle of requests through the LB the whole time.
end=$(( $(date +%s) + RUNTIME ))
reqs=0
while [ "$(date +%s)" -lt "$end" ]; do
    curl -fsS -o /dev/null -H "X-Session: smoke-$((reqs % 7))" \
        "http://127.0.0.1:$LB_PORT/" 2>/dev/null && reqs=$((reqs + 1)) || true
    sleep 0.1
done
echo "==> drove $reqs requests through the LB"
[ "$reqs" -gt 0 ] || { echo "FAIL: no request ever succeeded" >&2; cat "$LOG" >&2; exit 1; }

METRICS=$(curl -fsS "http://127.0.0.1:$MON_PORT/metrics")

check_metric() {
    # check_metric <name-prefix>: the exposition must contain a sample for it.
    echo "$METRICS" | grep -q "^$1" || {
        echo "FAIL: /metrics missing $1" >&2
        echo "$METRICS" | head -50 >&2
        exit 1
    }
}

check_metric "spotweb_lb_request_seconds_bucket"
check_metric "spotweb_slo_attainment_ratio"
check_metric "spotweb_solver_solves_total"
check_metric "spotweb_backends_live"
check_metric "spotweb_risk_fail_prob"
check_metric "spotweb_risk_divergence"
check_metric "spotweb_risk_events_total"

check_positive() {
    # check_positive <series>: the sample must read > 0. Counters print 0 from
    # registration, so presence alone does not show the trickle reached them.
    v=$(echo "$METRICS" | awk -v s="$1" '$1 == s {print int($2)}')
    [ "${v:-0}" -gt 0 ] || {
        echo "FAIL: $1 = ${v:-missing}, want > 0" >&2
        exit 1
    }
    echo "    $1 = $v"
}

# The trickle carries X-Session, so its repeat sessions hit their bindings.
check_positive "spotweb_lb_requests_total"
check_positive 'spotweb_lb_route_total{result="ok"}'
check_positive "spotweb_lb_sticky_hits_total"
echo "==> /metrics ok"

curl -fsS "http://127.0.0.1:$MON_PORT/events" >/dev/null || {
    echo "FAIL: /events" >&2
    exit 1
}
echo "==> /events ok"

echo "==> sending SIGTERM"
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
if [ "$status" -ne 0 ]; then
    echo "FAIL: spotwebd exited $status after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "final metrics snapshot" "$LOG" || {
    echo "FAIL: no final metrics snapshot flushed on shutdown" >&2
    cat "$LOG" >&2
    exit 1
}
PID=""
echo "==> clean shutdown with final snapshot"
echo "SMOKE OK"
