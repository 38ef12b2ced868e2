#!/usr/bin/env bash
# The pre-PR gate: check formatting, build everything, vet this module and
# the benchmark's, run the full test suite, re-run the concurrent packages
# under the race detector, then fuzz the byte and query parsers, the
# cleaner's batch == live property and DBSCAN against its textbook loop.
# Green here is the bar every change must clear (ROADMAP tier-1 plus the
# race and fuzz gates).
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

# bench/ is a module of its own, so ./... above skips it: type-check it
# against this checkout so a main-module change that breaks the
# benchmark's build fails here. It writes nothing under bench/.
echo ">> (cd bench && go vet ./...)"
(cd bench && go vet ./...)

echo ">> go test ./..."
go test ./...

echo ">> go test -race (concurrent packages)"
go test -race -count=1 \
	./internal/chaos ./internal/cluster ./internal/core \
	./internal/feedclient ./internal/forecast ./internal/history \
	./internal/ingest ./internal/obs ./internal/store ./internal/stream \
	./cmd/queued ./cmd/queueload

# Fuzz the byte and query parsers for a fixed budget each (go test fuzzes
# one target of one package per run). A crasher lands in the package's
# testdata/fuzz and fails every later go test until it is fixed.
echo ">> go test -fuzz (15s per target)"
go test -run '^$' -fuzz '^FuzzDecodeBinary$' -fuzztime=15s ./internal/mdt
go test -run '^$' -fuzz '^FuzzParseText$' -fuzztime=15s ./internal/mdt
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime=15s ./internal/store
# FuzzLoadFrames's inputs carry block payloads of up to 18 KB, and
# shrinking each new input (60 s by default) took the whole budget: 154
# executions in 15 s. Unshrunk, it makes ~160,000.
go test -run '^$' -fuzz '^FuzzLoadFrames$' -fuzztime=15s -fuzzminimizetime=0 ./internal/store
go test -run '^$' -fuzz '^FuzzOpenLog$' -fuzztime=15s ./internal/store
go test -run '^$' -fuzz '^FuzzDecodeJSONLines$' -fuzztime=15s ./internal/ingest
go test -run '^$' -fuzz '^FuzzDecodeBlock$' -fuzztime=15s ./internal/history
go test -run '^$' -fuzz '^FuzzParseMix$' -fuzztime=15s ./cmd/queueload
go test -run '^$' -fuzz '^FuzzParseCoord$' -fuzztime=15s ./cmd/queued
go test -run '^$' -fuzz '^FuzzRangeParams$' -fuzztime=15s ./cmd/queued
# Shrinking FuzzStreamerMatchesClean's new inputs took most of its budget
# (56,357 executions in 15 s); unshrunk it makes ~210,000.
go test -run '^$' -fuzz '^FuzzStreamerMatchesClean$' -fuzztime=15s -fuzzminimizetime=0 ./internal/clean
# FuzzDBSCANMatchesNaive stalled for up to 20 s while it shrank a new
# input: 4,900 executions in 15 s. Unshrunk it makes 70,000–95,000.
go test -run '^$' -fuzz '^FuzzDBSCANMatchesNaive$' -fuzztime=15s -fuzzminimizetime=0 ./internal/cluster

echo ">> all checks clean"
