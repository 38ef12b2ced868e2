#!/usr/bin/env bash
# The pre-PR gate: check formatting, build everything, vet, run the full
# test suite, re-run the concurrent packages under the race detector, then
# fuzz the byte parsers. Green here is the bar every change must clear (ROADMAP tier-1
# plus the race and fuzz gates).
#
# Usage:
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">> gofmt -l (tracked .go files)"
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

echo ">> go test ./..."
go test ./...

echo ">> go test -race (concurrent packages)"
go test -race -count=1 \
	./internal/chaos ./internal/cluster ./internal/core \
	./internal/feedclient ./internal/forecast ./internal/history \
	./internal/ingest ./internal/obs ./internal/store ./internal/stream \
	./cmd/queued ./cmd/queueload

# Fuzz the byte parsers for a fixed budget each (go test fuzzes one target
# of one package per run). A crasher lands in the package's testdata/fuzz
# and fails every later go test until it is fixed.
echo ">> go test -fuzz (15s per target)"
go test -run '^$' -fuzz '^FuzzDecodeBinary$' -fuzztime=15s ./internal/mdt
go test -run '^$' -fuzz '^FuzzParseText$' -fuzztime=15s ./internal/mdt
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime=15s ./internal/store
go test -run '^$' -fuzz '^FuzzOpenLog$' -fuzztime=15s ./internal/store
go test -run '^$' -fuzz '^FuzzDecodeJSONLines$' -fuzztime=15s ./internal/ingest
go test -run '^$' -fuzz '^FuzzDecodeBlock$' -fuzztime=15s ./internal/history

echo ">> all checks clean"
