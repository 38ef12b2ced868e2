#!/usr/bin/env bash
# Runs the stage and ablation benchmark suites with -benchmem, records the
# perf trajectory as JSON (ns/op, B/op, allocs/op per benchmark), and
# race-tests the concurrent packages.
#
# Usage:
#   scripts/bench.sh                 # writes bench_micro.json (git-ignored)
#   BENCHTIME=3x scripts/bench.sh    # more iterations per benchmark
#   BENCH_COUNT=4 scripts/bench.sh   # -count=4, record the per-bench minimum
#   BENCH_OUT=after.json scripts/bench.sh
#
# The box these numbers come from is a shared VM with 2 vCPUs (`nproc` = 2)
# and noisy neighbours: wall-clock numbers swing 2-4x minute to minute
# (fsync latency especially). BENCH_COUNT > 1 runs every suite N times and
# records each benchmark's *minimum* ns/op — the least-interference
# estimate, which is the comparable number across PRs.
#
# Compare two recorded runs with benchstat (golang.org/x/perf) over the raw
# text files the script leaves in /tmp, or diff the JSON directly.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-bench_micro.json}"
benchtime="${BENCHTIME:-1x}"
count="${BENCH_COUNT:-1}"
raw="$(mktemp /tmp/bench_raw.XXXXXX.txt)"

echo ">> go vet ./..."
go vet ./...

echo ">> go test -bench 'Benchmark(Stage|Ablation)' -benchmem -benchtime $benchtime -count $count ."
go test -run '^$' -bench 'Benchmark(Stage|Ablation)' -benchmem \
	-benchtime "$benchtime" -count "$count" -timeout 45m . | tee "$raw"

# queued's bootstrap day, layer by layer: simulating it (BenchmarkSimRun:
# city seed 1, scale 0.25, faults on, the day queued builds at start-up)
# and cleaning a faulty day into a copy (BenchmarkClean), in place
# (BenchmarkCompact) or record by record as a live ingest shard does
# (BenchmarkStreamer). B/op is the number to watch: the day's copies. The
# step runs at the stage suite's BENCHTIME.
echo ">> go test -bench 'BenchmarkSimRun|BenchmarkClean|BenchmarkCompact|BenchmarkStreamer' -benchmem -benchtime $benchtime -count $count ./internal/sim ./internal/clean"
go test -run '^$' -bench 'BenchmarkSimRun|BenchmarkClean|BenchmarkCompact|BenchmarkStreamer' -benchmem \
	-benchtime "$benchtime" -count "$count" -timeout 45m ./internal/sim ./internal/clean | tee -a "$raw"

# The batch day's scan on its own: one full-window Store.Scan of a
# day-shaped store built in memory (3,000 taxis, sub-second times, 24 h),
# without the file load BenchmarkStageLoadDay also times; and the one sort
# that store's taxi-by-taxi feed costs its first read (BenchmarkSort). The
# step runs at the stage suite's BENCHTIME.
echo ">> go test -bench '^Benchmark(Scan|Sort)\$' -benchmem -benchtime $benchtime -count $count ./internal/store"
go test -run '^$' -bench '^Benchmark(Scan|Sort)$' -benchmem \
	-benchtime "$benchtime" -count "$count" -timeout 45m ./internal/store | tee -a "$raw"

# Ingest throughput: records/sec vs shard count, with and without the WAL.
# The BenchmarkIngest pattern also picks up BenchmarkIngestDurable (the
# WAL's group commit, one fsync per 256 records under load).
ingest_benchtime="${INGEST_BENCHTIME:-200000x}"
echo ">> go test -bench BenchmarkIngest -benchmem -benchtime $ingest_benchtime -count $count ./internal/ingest"
go test -run '^$' -bench 'BenchmarkIngest' -benchmem \
	-benchtime "$ingest_benchtime" -count "$count" -timeout 45m ./internal/ingest | tee -a "$raw"

# Live spot discovery: one op is the ingest tracker's refresh batch,
# 64 pickups into a steady 3 h window plus one Refresh (the batch spot
# detector over the window), for a dense and a sparse window.
live_benchtime="${LIVE_BENCHTIME:-20x}"
echo ">> go test -bench BenchmarkLiveRefresh -benchmem -benchtime $live_benchtime -count $count ./internal/core"
go test -run '^$' -bench 'BenchmarkLiveRefresh' -benchmem \
	-benchtime "$live_benchtime" -count "$count" -timeout 45m ./internal/core | tee -a "$raw"

# History store: watermark-advance append (encode + seal), one range scan
# and one heatmap aggregation over a week of 50 spots; the pattern also
# picks up the analytics fast-path suite (BenchmarkHistoryHeatmapRange and
# its decode-everything baseline, BenchmarkHistorySeriesWide, and the
# lazy/eager cold-open pair).
history_benchtime="${HISTORY_BENCHTIME:-200x}"
echo ">> go test -bench BenchmarkHistory -benchmem -benchtime $history_benchtime -count $count ./internal/history"
go test -run '^$' -bench 'BenchmarkHistory' -benchmem \
	-benchtime "$history_benchtime" -count "$count" -timeout 45m ./internal/history | tee -a "$raw"

# Forecast profiles: one table evaluation (the /forecast unit of work)
# and a full-day fold across 64 spots.
forecast_benchtime="${FORECAST_BENCHTIME:-100000x}"
echo ">> go test -bench 'BenchmarkForecast|BenchmarkAppendDay' -benchmem -benchtime $forecast_benchtime -count $count ./internal/forecast"
go test -run '^$' -bench 'BenchmarkForecast|BenchmarkAppendDay' -benchmem \
	-benchtime "$forecast_benchtime" -count "$count" -timeout 45m ./internal/forecast | tee -a "$raw"

# Snapshot serving: cached read path vs the locked baseline, served
# concurrently with a live feed (the PR 5 ≥5x criterion); the pattern also
# picks up BenchmarkServeRecommend (ETA-aware ranking) and
# BenchmarkServeForecast.
serve_benchtime="${SERVE_BENCHTIME:-5000x}"
echo ">> go test -bench BenchmarkServe -benchmem -benchtime $serve_benchtime -count $count ./cmd/queued"
go test -run '^$' -bench 'BenchmarkServe' -benchmem \
	-benchtime "$serve_benchtime" -count "$count" -timeout 45m ./cmd/queued | tee -a "$raw"

# Fold -count repetitions to the per-benchmark minimum ns/op (keeping the
# B/op and allocs/op from that same run), preserving first-seen order.
awk '
BEGIN { n = 0 }
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns     = $(i - 1)
		if ($i == "B/op")      bytes  = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	if (!(name in best)) order[n++] = name
	if (!(name in best) || ns + 0 < best[name] + 0) {
		best[name] = ns; bb[name] = bytes; ba[name] = allocs
	}
}
END {
	for (i = 0; i < n; i++) {
		name = order[i]
		if (i) printf(",\n")
		printf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, best[name])
		if (bb[name] != "") printf(", \"b_per_op\": %s", bb[name])
		if (ba[name] != "") printf(", \"allocs_per_op\": %s", ba[name])
		printf("}")
	}
	print ""
}
' "$raw" > /tmp/bench_body.$$

{
	echo "{"
	echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"go\": \"$(go env GOVERSION)\","
	echo "  \"cpus\": $(nproc),"
	echo "  \"benchmarks\": ["
	cat /tmp/bench_body.$$
	echo "  ]"
	echo "}"
} > "$out"
rm -f /tmp/bench_body.$$
echo ">> wrote $out"

# Ingest summary: each BenchmarkIngest* op accepts exactly one record, so
# records/sec is just 1e9 / ns_per_op. Printed for the PR log — the JSON
# above stays the canonical record.
echo ">> ingest throughput (records/sec, from min ns/op)"
awk '
/^BenchmarkIngest/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
	if (ns == "") next
	if (!(name in best)) order[n++] = name
	if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
}
END {
	for (i = 0; i < n; i++)
		printf("   %-55s %12.0f rec/s\n", order[i], 1e9 / best[order[i]])
}
' "$raw"

# queueload smoke: boot a live queued instance and drive a short mixed
# read+ingest load through it; fails if any endpoint returns errors.
smoke_addr="${QUEUELOAD_ADDR:-127.0.0.1:18131}"
smoke_dur="${QUEUELOAD_DURATION:-3s}"
echo ">> queueload smoke ($smoke_dur against $smoke_addr)"
bin="$(mktemp -d /tmp/bench_bin.XXXXXX)"
go build -o "$bin/queued" ./cmd/queued
go build -o "$bin/queueload" ./cmd/queueload
hist_dir="$(mktemp -d /tmp/bench_hist.XXXXXX)"
"$bin/queued" -addr "$smoke_addr" -scale 0.05 -minpts 25 -live -shards 2 \
	-history "$hist_dir" &
queued_pid=$!
trap 'kill "$queued_pid" 2>/dev/null || true; rm -rf "$bin" "$hist_dir"' EXIT
for i in $(seq 1 100); do
	if curl -fsS "http://$smoke_addr/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.2
done
"$bin/queueload" -url "http://$smoke_addr" -duration "$smoke_dur" \
	-clients 4 -feed -feed-scale 0.05

# Range-scan smoke: finalize the fed slots, then drive the history mix
# (series scans, heatmaps, transition matrices, plus the wide mix's
# multi-day /history spans and range-form /heatmap aggregates) against the
# same instance while a second full-rate feed replays concurrently (its
# records dedup / close-out harmlessly — the scans must not care);
# queueload exits non-zero if any request errors.
curl -fsS -X POST "http://$smoke_addr/ingest/flush" >/dev/null
"$bin/queueload" -url "http://$smoke_addr" -duration "$smoke_dur" \
	-clients 4 -feed -feed-scale 0.05 \
	-mix "history=4,heatmap=2,transitions=1,spots=1,forecast=2,recommend=1,wide=2"
kill "$queued_pid" 2>/dev/null || true
wait "$queued_pid" 2>/dev/null || true
trap 'rm -rf "$bin" "$hist_dir"' EXIT
echo ">> queueload smoke clean"

echo ">> go test -race ./internal/chaos ./internal/cluster ./internal/core ./internal/forecast ./internal/history ./internal/ingest ./internal/obs ./internal/store ./internal/stream"
go test -race -count=1 ./internal/chaos ./internal/cluster ./internal/core ./internal/forecast ./internal/history ./internal/ingest ./internal/obs ./internal/store ./internal/stream
echo ">> race check clean"
