#!/usr/bin/env bash
# Observability + serving + streaming smoke test: boot a real
# cobra-server with the metrics endpoint on and a live simulated race
# feed, drive one COQL query through the wire protocol, prove the
# semantic result cache cycles MISS -> HIT -> epoch-invalidate against
# live ingestion (via CACHESTATS and /metrics), SUBSCRIBE a standing
# query and assert at least one pushed EVENT frame arrives, and check
# the monitoring surfaces are well-formed — /metrics in both content
# negotiations (Prometheus text by default, JSON under
# Accept: application/json), a TRACEDUMP span tree covering the
# query, and a stream.eval trace covering the standing query's
# re-evaluation. Run from the repository root; CI runs it after the
# build.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:14242
MADDR=127.0.0.1:16060
TMP=$(mktemp -d)
BIN="$TMP/bin"
mkdir -p "$BIN"

cleanup() {
  [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "smoke: building"
go build -o "$BIN/cobra-server" ./cmd/cobra-server
go build -o "$BIN/cobra-cli" ./cmd/cobra-cli

echo "smoke: starting cobra-server on $ADDR (metrics on $MADDR, live feed)"
"$BIN/cobra-server" -addr "$ADDR" -metrics-addr "$MADDR" -slow-query-ms 0 \
  -feed live-gp -feed-dur 600 -feed-interval 250ms -feed-step 2 \
  >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

# The fresh server simulates and ingests its corpus before listening;
# poll until the protocol port accepts a PING round trip (the CLI
# exits non-zero while the listener is down).
ok=""
for _ in $(seq 1 120); do
  if printf 'PING\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" >/dev/null 2>&1; then
    ok=1
    break
  fi
  sleep 1
done
if [ -z "$ok" ]; then
  echo "smoke: FAIL server never answered PING" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi

echo "smoke: running a query"
printf "SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight')\n.quit\n" \
  | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/query.out"
# Result lines are "start end confidence [attrs]".
grep -qE '^ *[0-9]+\.[0-9] +[0-9]+\.[0-9] +[0-9]\.[0-9]{3}' "$TMP/query.out" || {
  echo "smoke: FAIL query returned no segments" >&2
  cat "$TMP/query.out" >&2
  exit 1
}

# cachestat <name>: one counter out of a CACHESTATS response. The
# shell's "cobra> " prompt shares a line with the first stat, so match
# the key at any field position rather than anchoring on column one.
cachestat() {
  printf 'CACHESTATS\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" \
    | awk -v k="$1" '{ for (i = 1; i < NF; i++) if ($i == k) print $(i + 1) }'
}

echo "smoke: checking result cache MISS -> HIT"
CQ="SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight')"
# Prime once: a first execution can trigger lazy extraction that bumps
# its own dependency epochs, stale-marking the entry it just stored.
# german-gp is static (the feed airs into live-gp), so after priming
# its epochs hold and MISS -> HIT is deterministic.
printf "%s\n.quit\n" "$CQ" | "$BIN/cobra-cli" -connect "$ADDR" >/dev/null
misses0=$(cachestat qcache.misses)
hits0=$(cachestat qcache.hits)
[ "$misses0" -ge 1 ] || {
  echo "smoke: FAIL no cache misses recorded after cold queries" >&2
  exit 1
}
printf "%s\n.quit\n" "$CQ" | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/cached.out"
hits1=$(cachestat qcache.hits)
[ "$hits1" -gt "$hits0" ] || {
  echo "smoke: FAIL repeated query was not a cache hit (hits $hits0 -> $hits1)" >&2
  printf 'CACHESTATS\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" >&2
  exit 1
}
# The cached response is still a real result set.
grep -qE '^ *[0-9]+\.[0-9] +[0-9]+\.[0-9] +[0-9]\.[0-9]{3}' "$TMP/cached.out" || {
  echo "smoke: FAIL cache hit returned no segments" >&2
  cat "$TMP/cached.out" >&2
  exit 1
}

echo "smoke: checking epoch invalidation against the live feed"
LQ="SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')"
printf "%s\n.quit\n" "$LQ" | "$BIN/cobra-cli" -connect "$ADDR" >/dev/null
inval0=$(cachestat qcache.invalidations)
# The feed airs 2 s of broadcast into live-gp every 250ms, but the
# entry's dependency (the event relation) only moves on ticks in which
# an event completes — about one second in three — so poll instead of
# betting on one fixed window.
for _ in $(seq 1 15); do
  sleep 1
  printf "%s\n.quit\n" "$LQ" | "$BIN/cobra-cli" -connect "$ADDR" >/dev/null
  inval1=$(cachestat qcache.invalidations)
  [ "$inval1" -gt "$inval0" ] && break
done
[ "$inval1" -gt "$inval0" ] || {
  echo "smoke: FAIL live-feed append did not invalidate the cached entry (invalidations $inval0 -> $inval1)" >&2
  printf 'CACHESTATS\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" >&2
  exit 1
}

echo "smoke: checking TRACEDUMP"
printf 'TRACEDUMP\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/traces.out"
# The live feed interleaves stream.eval traces into the ring; anchor on
# the one-shot query's own listing line.
TRACE_ID=$(grep "german-gp" "$TMP/traces.out" | grep -oE 't[0-9a-f]{6,}' | head -1)
if [ -z "$TRACE_ID" ]; then
  echo "smoke: FAIL no trace IDs in TRACEDUMP" >&2
  cat "$TMP/traces.out" >&2
  exit 1
fi
printf 'TRACEDUMP %s\n.quit\n' "$TRACE_ID" | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/trace.out"
for want in "coql.query" "rows_scanned=" "level=conceptual"; do
  grep -q "$want" "$TMP/trace.out" || {
    echo "smoke: FAIL trace $TRACE_ID missing $want" >&2
    cat "$TMP/trace.out" >&2
    exit 1
  }
done
printf 'TRACEDUMP %s CHROME\n.quit\n' "$TRACE_ID" | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/chrome.out"
grep -q '"traceEvents"' "$TMP/chrome.out" || {
  echo "smoke: FAIL Chrome trace export missing traceEvents" >&2
  cat "$TMP/chrome.out" >&2
  exit 1
}

echo "smoke: checking streaming SUBSCRIBE"
# The standing query's first EVENT frame (the initial snapshot) is
# pushed at SUBSCRIBE time; a second frame arrives if the feed is
# still airing. At least one pushed notification must land.
printf "subscribe SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')\nfollow 2\n.quit\n" \
  | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/stream.out" || true
grep -q 'subscribed as s' "$TMP/stream.out" || {
  echo "smoke: FAIL SUBSCRIBE did not register" >&2
  cat "$TMP/stream.out" >&2
  exit 1
}
grep -qE 'EVENT s[0-9]+ seq=[0-9]+ watermark=' "$TMP/stream.out" || {
  echo "smoke: FAIL no pushed EVENT frame arrived" >&2
  cat "$TMP/stream.out" >&2
  exit 1
}
printf 'TRACEDUMP\n.quit\n' | "$BIN/cobra-cli" -connect "$ADDR" >"$TMP/straces.out"
grep -q 'SUBSCRIBE\[s' "$TMP/straces.out" || {
  echo "smoke: FAIL no stream.eval trace for the standing query in TRACEDUMP" >&2
  cat "$TMP/straces.out" >&2
  exit 1
}

echo "smoke: checking /metrics content negotiation"
curl -fsS "http://$MADDR/metrics" >"$TMP/metrics.prom"
grep -q '^# TYPE cobra_' "$TMP/metrics.prom" || {
  echo "smoke: FAIL /metrics default is not Prometheus text" >&2
  head -5 "$TMP/metrics.prom" >&2
  exit 1
}
grep -q 'cobra_coql_queries' "$TMP/metrics.prom" || {
  echo "smoke: FAIL query counter missing from Prometheus exposition" >&2
  exit 1
}
grep -q 'cobra_stream_evals' "$TMP/metrics.prom" || {
  echo "smoke: FAIL streaming counters missing from Prometheus exposition" >&2
  exit 1
}
for m in cobra_qcache_hits cobra_qcache_misses cobra_qcache_invalidations; do
  grep -q "$m" "$TMP/metrics.prom" || {
    echo "smoke: FAIL result-cache counter $m missing from Prometheus exposition" >&2
    exit 1
  }
done
curl -fsS -H 'Accept: application/json' "http://$MADDR/metrics" >"$TMP/metrics.json"
grep -q '"counters"' "$TMP/metrics.json" || {
  echo "smoke: FAIL /metrics JSON negotiation failed" >&2
  head -5 "$TMP/metrics.json" >&2
  exit 1
}
curl -fsS "http://$MADDR/debug/vars" >"$TMP/vars.json"
grep -q '"counters"' "$TMP/vars.json" || {
  echo "smoke: FAIL /debug/vars is not JSON" >&2
  exit 1
}

echo "smoke: OK"
