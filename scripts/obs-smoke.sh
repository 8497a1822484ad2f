#!/usr/bin/env bash
# Observability-plane smoke: boots two real linesearchd backends and a
# linerouter with its debug surface enabled, then asserts the
# cross-process plumbing end to end:
#
#   1. A sampled request pushed through the proxy shows up on the
#      router's /debug/fleet-traces as ONE trace spanning the router
#      and the serving backend (trace stitching).
#   2. A plain scrape of /metrics on a backend and on the router,
#      without an Accept header, returns the Prometheus text exposition
#      carrying the latency histograms and backend gauge loadgen reads.
#   3. A topology reshape journals topology_change on the router and,
#      via the warm transfer, snapshot_import on the backend that
#      inherited the hot plan-cache keys (/debug/events is live on
#      every process).
#
# Everything binds to 127.0.0.1 ephemeral ports; the trap kills the
# fleet and removes the scratch directory on any exit.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
TRACE_ID=4bf92f3577b34da6a3ce929d0e0e4736
TRACEPARENT="00-${TRACE_ID}-00f067aa0ba902b7-01"

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "obs-smoke: building daemons"
$GO build -o "$work/linesearchd" ./cmd/linesearchd
$GO build -o "$work/linerouter" ./cmd/linerouter

# wait_addr LOGFILE PATTERN: polls until the daemon prints its bound
# address ("<name>: [debug ]listening on HOST:PORT") and echoes it.
wait_addr() {
  local log=$1 pattern=$2 addr
  for _ in $(seq 1 100); do
    addr=$(awk -v pat="$pattern" '$0 ~ pat {print $NF; exit}' "$log" 2>/dev/null || true)
    if [ -n "$addr" ]; then echo "$addr"; return 0; fi
    sleep 0.1
  done
  echo "obs-smoke: no '$pattern' line in $log after 10s" >&2
  cat "$log" >&2
  return 1
}

start_backend() {
  local i=$1
  "$work/linesearchd" -addr 127.0.0.1:0 -quiet -trace-sample 1 \
    -sweep-dir "$work/sweeps$i" -replica-dir "$work/replicas$i" \
    -snapshot-dir "$work/snapshots$i" >"$work/b$i.log" 2>&1 &
  pids+=($!)
}
start_backend 1
start_backend 2
b1=$(wait_addr "$work/b1.log" "^linesearchd: listening on")
b2=$(wait_addr "$work/b2.log" "^linesearchd: listening on")
echo "obs-smoke: backends at $b1 $b2"

# The router starts on backend 1 alone so the reshape below moves every
# cached key: adding a donor's keys to an unchanged ring moves nothing.
"$work/linerouter" -addr 127.0.0.1:0 -quiet -trace-sample 1 \
  -backends "http://$b1" -debug-addr 127.0.0.1:0 >"$work/router.log" 2>&1 &
pids+=($!)
router=$(wait_addr "$work/router.log" "^linerouter: listening on")
debug=$(wait_addr "$work/router.log" "^linerouter: debug listening on")
echo "obs-smoke: router at $router (debug $debug)"

echo "obs-smoke: driving a traced request through the proxy"
curl -fsS -H "Traceparent: $TRACEPARENT" \
  "http://$router/v1/searchtime?n=4&f=2&x=3.5" >"$work/answer.json"
grep -q '"time"' "$work/answer.json" || {
  echo "obs-smoke: unexpected searchtime answer:" >&2; cat "$work/answer.json" >&2; exit 1; }

echo "obs-smoke: checking the stitched trace"
ok=false
for _ in $(seq 1 50); do
  curl -fsS "http://$debug/debug/fleet-traces?trace=$TRACE_ID" >"$work/fleet.json" || true
  if grep -q "\"trace_id\":\"$TRACE_ID\"" "$work/fleet.json" \
    && grep -q '"process":"router"' "$work/fleet.json" \
    && grep -Eq '"processes":[2-9]' "$work/fleet.json"; then
    ok=true; break
  fi
  sleep 0.1
done
if [ "$ok" != true ]; then
  echo "obs-smoke: fleet-traces never stitched trace $TRACE_ID across processes:" >&2
  cat "$work/fleet.json" >&2
  exit 1
fi
echo "obs-smoke: stitched trace spans router + backend"

# check_metrics HOST FAMILY...: scrapes /metrics with the Accept header
# removed and requires the text Content-Type and every named family.
check_metrics() {
  local host=$1; shift
  curl -fsS -H 'Accept:' -D "$work/metrics.headers" "http://$host/metrics" >"$work/metrics.prom"
  grep -qi '^content-type: text/plain; version=0.0.4' "$work/metrics.headers" || {
    echo "obs-smoke: $host/metrics is not the text exposition:" >&2
    cat "$work/metrics.headers" >&2; exit 1; }
  for family in "$@"; do
    grep -q "^$family" "$work/metrics.prom" || {
      echo "obs-smoke: $host/metrics lacks $family:" >&2
      head -50 "$work/metrics.prom" >&2; exit 1; }
  done
}
echo "obs-smoke: checking /metrics on a backend and the router"
check_metrics "$b1" linesearchd_http_request_duration_seconds_bucket
check_metrics "$router" linerouter_backend_request_duration_seconds_bucket linerouter_backend_up
echo "obs-smoke: both daemons serve the text exposition"

# Reshape the fleet to backend 2 alone: the router journals the
# topology change, and the warm transfer rehomes backend 1's hot
# plan-cache entry (the searchtime plan above) onto backend 2, which
# journals the accepted import.
echo "obs-smoke: reshaping topology to trigger a warm transfer"
curl -fsS -X PUT -H 'Content-Type: application/json' \
  -d "{\"backends\": [\"http://$b2\"]}" \
  "http://$router/admin/topology" >/dev/null

echo "obs-smoke: checking the event journals"
curl -fsS "http://$debug/debug/events?kind=topology_change" >"$work/router-events.json"
grep -q '"kind":"topology_change"' "$work/router-events.json" || {
  echo "obs-smoke: router journalled no topology_change:" >&2
  cat "$work/router-events.json" >&2; exit 1; }
curl -fsS "http://$b2/debug/events?kind=snapshot_import" >"$work/backend-events.json"
grep -q '"kind":"snapshot_import"' "$work/backend-events.json" || {
  echo "obs-smoke: backend 2 journalled no snapshot_import after the warm transfer:" >&2
  cat "$work/backend-events.json" >&2; exit 1; }

echo "obs-smoke: PASS (stitched traces, text /metrics, live journals on every process)"
