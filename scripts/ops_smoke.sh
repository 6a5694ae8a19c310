#!/usr/bin/env sh
# ops_smoke.sh — end-to-end smoke of the live ops plane (make ops-smoke).
#
# Boots lppa-net's epochal demo with the full ops plane enabled and an
# impossibly tight SLO (allocate=1ns), so the burn-rate monitor breaches
# deterministically on real traffic. Then asserts, over HTTP and the
# artifacts on disk:
#   /readyz   -> 503 "closed" once the demo's service has drained
#   /healthz  -> 503 carrying slo_breach:allocate
#   /statusz  -> JSON with the breach latched and epochs observed
#   /metrics  -> lppa_ops_* series present, with # HELP text, and every
#                epoch's round series (lppa_rounds_total)
#   events.jsonl -> slo_breach and epoch_closed lines, trace-correlated
#   flight dir   -> an epoch-tagged forced dump (flight-e*-*.trace.json)
set -eu

WORK="$(mktemp -d)"
OUT="$WORK/net.out"
EVENTS="$WORK/events.jsonl"
FLIGHT="$WORK/flight"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "ops-smoke: FAIL: $*" >&2
    echo "--- lppa-net output ---" >&2
    cat "$OUT" >&2 || true
    exit 1
}

echo "ops-smoke: building lppa-net"
go build -o "$WORK/lppa-net" ./cmd/lppa-net

"$WORK/lppa-net" -epochs 6 -bidders 16 -seed 7 \
    -metrics-addr 127.0.0.1:0 \
    -ops-events "$EVENTS" \
    -flight-dir "$FLIGHT" \
    -trace-sample 2 \
    -slo allocate=1ns -slo-fast-window 4 -slo-slow-window 8 \
    -anon-floor 1 \
    >"$OUT" 2>&1 &
PID=$!

# The demo prints the bound metrics address first, runs its epochs, then
# lingers for scrape. Wait for both the banner and epoch completion.
BASE=""
for _ in $(seq 1 100); do
    BASE="$(sed -n 's|^metrics on http://\([^/]*\)/metrics$|\1|p' "$OUT" 2>/dev/null | head -1)"
    if [ -n "$BASE" ] && grep -q "epochs in" "$OUT"; then
        break
    fi
    kill -0 "$PID" 2>/dev/null || fail "lppa-net exited early"
    sleep 0.2
done
[ -n "$BASE" ] || fail "no metrics banner in output"
grep -q "epochs in" "$OUT" || fail "epochs did not complete"
echo "ops-smoke: service up at $BASE"

http() { # http <path>: body in $WORK/body, status code in $CODE
    CODE="$(curl -s -o "$WORK/body" -w '%{http_code}' "http://$BASE$1")"
}

# 1. Readiness: the demo's service has drained and closed by the time it
# lingers for scrape, so probes must see NOT-ready with the closed state —
# readiness flipping at drain is exactly the contract under test.
http /readyz
[ "$CODE" = "503" ] || fail "/readyz returned $CODE, want 503 after drain"
grep -q "closed" "$WORK/body" || fail "/readyz body lacks closed state: $(cat "$WORK/body")"

# 2. Health: the 1ns allocate SLO must have breached.
http /healthz
[ "$CODE" = "503" ] || fail "/healthz returned $CODE, want 503 (breached)"
grep -q "slo_breach:allocate" "$WORK/body" || fail "/healthz body lacks slo_breach:allocate: $(cat "$WORK/body")"

# 3. Status document: valid JSON, breach latched, all epochs observed.
http /statusz
[ "$CODE" = "200" ] || fail "/statusz returned $CODE"
grep -q '"epochs_observed": *6' "$WORK/body" || fail "/statusz epochs_observed != 6: $(cat "$WORK/body")"
grep -q '"breached": *true' "$WORK/body" || fail "/statusz carries no latched SLO breach: $(cat "$WORK/body")"
grep -q '"anonymity"' "$WORK/body" || fail "/statusz carries no anonymity series: $(cat "$WORK/body")"

# 4. Metrics: ops series exported with help text.
http /metrics
[ "$CODE" = "200" ] || fail "/metrics returned $CODE"
grep -q '^lppa_ops_slo_breaches_total [1-9]' "$WORK/body" || fail "no breach count in /metrics"
grep -q '^# HELP lppa_ops_slo_breaches_total ' "$WORK/body" || fail "no # HELP for breach counter"
grep -q '^lppa_ops_sampled_traces_total 3$' "$WORK/body" || fail "1-in-2 sampler did not trace 3 of 6 epochs"
grep -q '^lppa_rounds_total 6$' "$WORK/body" || fail "epoch rounds did not report into /metrics (want lppa_rounds_total 6)"

# 5. Event log: breach and epoch-close events, epoch-correlated.
[ -s "$EVENTS" ] || fail "event log $EVENTS is empty"
grep -q '"type":"slo_breach"' "$EVENTS" || fail "no slo_breach event in $EVENTS"
grep -q '"type":"epoch_closed"' "$EVENTS" || fail "no epoch_closed event in $EVENTS"
grep -q '"type":"epoch_sealed"' "$EVENTS" || fail "no epoch_sealed event in $EVENTS"
grep '"type":"epoch_closed"' "$EVENTS" | grep -q '"trace":"[0-9a-f]' \
    || fail "no trace-correlated epoch_closed event in $EVENTS"

# 6. Flight recorder: the breach forced an epoch-tagged dump.
ls "$FLIGHT"/flight-e*-*.trace.json >/dev/null 2>&1 \
    || fail "no epoch-tagged flight dump in $FLIGHT: $(ls "$FLIGHT" 2>/dev/null || true)"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "ops-smoke: PASS"
