#!/usr/bin/env bash
# Named end-to-end scenarios replayed against a real queued binary over
# HTTP — heavier than a unit test, lighter than a deployment. Each
# scenario boots queued, drives a deterministic feed through mdtgen, and
# asserts the server-side invariants (healthz, accepted counts, WAL
# durability metrics).
#
# Usage:
#   scripts/scenario.sh surge            # the 10x airport-surge day
#   SURGE=20 scripts/scenario.sh surge   # a harsher multiplier
#   scripts/scenario.sh popup            # mid-day pop-up queue discovery
#
# Scenarios:
#   surge  Replay the same seeded day twice — 1x fleet, then SURGE x the
#          fleet — through a durable (WAL-on) live instance, with group
#          commit at the default SyncEvery. Everything is seeded, so a
#          surge run is exactly reproducible and directly comparable to
#          its 1x baseline. Fails if any feed batch errors, if the server
#          drops out of /healthz, or if the WAL has pending (unsynced)
#          records after the flush barrier.
#   popup  Boot a live instance with online spot discovery on, then feed a
#          seeded morning with a fabricated mid-feed pop-up queue at a
#          site no batch pass knows (mdtgen -popup), WITHOUT the final
#          flush (a full flush drains the discovery window by design).
#          Fails unless /spots?live=1 surfaces a confirmed live spot the
#          plain /spots view lacks, with the lifecycle counters agreeing —
#          i.e. the pop-up is visible online before any nightly batch
#          pass would see it.
set -euo pipefail
cd "$(dirname "$0")/.."

scenario="${1:-surge}"

addr="${SCENARIO_ADDR:-127.0.0.1:18141}"
surge="${SURGE:-10}"
scale="${SCENARIO_SCALE:-0.05}"
seed="${SCENARIO_SEED:-1}"

bin="$(mktemp -d /tmp/scenario_bin.XXXXXX)"
wal="$(mktemp -d /tmp/scenario_wal.XXXXXX)"
cleanup() {
	[ -n "${queued_pid:-}" ] && kill "$queued_pid" 2>/dev/null || true
	[ -n "${queued_pid:-}" ] && wait "$queued_pid" 2>/dev/null || true
	rm -rf "$bin" "$wal"
}
trap cleanup EXIT

wait_healthy() {
	for _ in $(seq 1 150); do
		if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return 0; fi
		sleep 0.2
	done
	echo "scenario: queued never became healthy on $addr" >&2
	return 1
}

# metric NAME — read one counter/gauge off /metrics, summed across its
# per-shard label series.
metric() {
	curl -fsS "http://$addr/metrics" | awk -v m="$1" '
		index($1, m) == 1 && (length($1) == length(m) || substr($1, length(m) + 1, 1) == "{") { sum += $2 }
		END { printf "%d\n", sum }'
}

run_surge() {
	echo ">> building queued + mdtgen"
	go build -o "$bin/queued" ./cmd/queued
	go build -o "$bin/mdtgen" ./cmd/mdtgen

	echo ">> booting durable live queued on $addr (WAL in $wal, group commit on)"
	"$bin/queued" -addr "$addr" -seed "$seed" -scale "$scale" -minpts 25 \
		-live -shards 4 -wal "$wal" &
	queued_pid=$!
	wait_healthy

	echo ">> 1x baseline day (seed $seed, scale $scale)"
	"$bin/mdtgen" -seed "$seed" -scale "$scale" -duration 2h \
		-stream "http://$addr/ingest" -stats
	base_accepted="$(metric ingest_accepted_total)"

	echo ">> surge day: same seed, same city, ${surge}x the fleet"
	"$bin/mdtgen" -seed "$seed" -scale "$scale" -duration 2h -surge "$surge" \
		-stream "http://$addr/ingest" -stats
	total_accepted="$(metric ingest_accepted_total)"

	echo ">> post-surge invariants"
	curl -fsS "http://$addr/healthz" >/dev/null || {
		echo "scenario: queued unhealthy after the surge" >&2
		return 1
	}
	surge_accepted=$((total_accepted - base_accepted))
	echo "   accepted: baseline=$base_accepted surge=$surge_accepted"
	if [ "$surge_accepted" -le "$base_accepted" ]; then
		echo "scenario: surge day accepted no more records than the baseline" >&2
		return 1
	fi
	pending="$(metric ingest_wal_pending)"
	if [ "$pending" != 0 ]; then
		echo "scenario: wal_pending=$pending after the flush barrier (group commit leak)" >&2
		return 1
	fi
	syncs="$(metric ingest_wal_syncs_total)"
	segs="$(metric ingest_wal_segments)"
	echo "   wal: pending=$pending syncs=$syncs files=$segs"
	echo ">> surge scenario clean (${surge}x survived, WAL drained)"
}

run_popup() {
	echo ">> building queued + mdtgen"
	go build -o "$bin/queued" ./cmd/queued
	go build -o "$bin/mdtgen" ./cmd/mdtgen

	echo ">> booting live queued with online spot discovery on $addr"
	"$bin/queued" -addr "$addr" -seed "$seed" -scale "$scale" -minpts 25 \
		-live -shards 4 -live-spots -live-spot-minpts 10 &
	queued_pid=$!
	wait_healthy

	# 4h feed with 30 fabricated pickups at a pop-up site starting at
	# +2h. No final flush: flushing runs the discovery clock to the grid
	# end, which (correctly) expires the whole sliding window — the point
	# of this scenario is the state *mid-feed*, before any batch pass.
	echo ">> feeding a seeded 4h morning with a pop-up queue at +2h (no flush)"
	"$bin/mdtgen" -seed "$seed" -scale "$scale" -duration 4h -popup 30 \
		-stream "http://$addr/ingest" -flush=false

	echo ">> post-feed invariants"
	plain="$(curl -fsS "http://$addr/spots")"
	if printf '%s' "$plain" | grep -q '"live"'; then
		echo "scenario: plain /spots leaked live-discovery fields" >&2
		return 1
	fi
	live="$(curl -fsS "http://$addr/spots?live=1")"
	if ! printf '%s' "$live" | grep -q '"live":true'; then
		echo "scenario: /spots?live=1 has no live-discovered spot" >&2
		return 1
	fi
	if ! printf '%s' "$live" | grep -q '"state":"confirmed"'; then
		echo "scenario: the pop-up never reached the confirmed state" >&2
		return 1
	fi
	confirmed="$(metric spot_live_confirmed_total)"
	tracked="$(metric spot_live_tracked)"
	if [ "$confirmed" -lt 1 ]; then
		echo "scenario: spot_live_confirmed_total=$confirmed, want >= 1" >&2
		return 1
	fi
	echo "   live spots: tracked=$tracked confirmed_total=$confirmed"
	echo ">> popup scenario clean (pop-up confirmed online, invisible to the batch view)"
}

case "$scenario" in
surge) run_surge ;;
popup) run_popup ;;
*)
	echo "scenario.sh: unknown scenario '$scenario' (have: surge, popup)" >&2
	exit 1
	;;
esac
