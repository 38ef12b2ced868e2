#!/usr/bin/env bash
# End-to-end observability demo: start `queued -live` with pprof enabled,
# replay a simulated day into /ingest with mdtgen, then show what the
# operational surface reports — the Prometheus scrape, the /ingest/stats
# JSON (same collectors, so they always agree) and the /healthz readiness
# probe.
#
# Usage:
#   scripts/metrics-demo.sh                 # defaults below
#   SCALE=0.25 RATE=20000 scripts/metrics-demo.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:8080}"
SCALE="${SCALE:-0.1}"
SEED="${SEED:-777}"
MINPTS="${MINPTS:-25}"
RATE="${RATE:-0}" # records/sec; 0 = as fast as possible
WAL="$(mktemp -d /tmp/tq-wal.XXXXXX)"

bin="$(mktemp -d /tmp/tq-bin.XXXXXX)"
echo ">> building queued and mdtgen"
go build -o "$bin/queued" ./cmd/queued
go build -o "$bin/mdtgen" ./cmd/mdtgen

"$bin/queued" -addr "$ADDR" -live -seed "$SEED" -scale "$SCALE" \
	-minpts "$MINPTS" -wal "$WAL" -pprof &
qpid=$!
# Let queued finish its shutdown commit before removing the WAL dir.
trap 'kill $qpid 2>/dev/null || true; wait $qpid 2>/dev/null || true; rm -rf "$WAL" "$bin"' EXIT

echo ">> waiting for /healthz"
for i in $(seq 1 120); do
	if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 $qpid 2>/dev/null; then
		echo "queued exited before becoming ready" >&2
		exit 1
	fi
	sleep 0.5
done
curl -fsS "http://$ADDR/healthz"; echo

echo ">> replaying one simulated day into /ingest"
"$bin/mdtgen" -seed "$SEED" -scale "$SCALE" -rate "$RATE" \
	-stream "http://$ADDR/ingest" -stats

echo ">> /metrics scrape (ingest + batch pipeline series)"
curl -fsS "http://$ADDR/metrics" | grep -E '^(ingest|pipeline)_' | head -60

echo ">> pprof is live too: go tool pprof http://$ADDR/debug/pprof/profile"
echo ">> done"
