#!/usr/bin/env bash
# The resilience gate: run the fault-injection suites under the race
# detector — the chaos package's own unit tests (seeded fault wrappers, the
# one fault table run against both users of store.Log), the feed client's
# retry/resume tests, the store and history recovery tests (bit-flip
# sweeps, torn tails), and the
# end-to-end scenario (a simulated day through a flaky transport, a
# mid-day crash with a torn WAL, a blind full re-send) that must converge
# to labels byte-identical to a fault-free run.
#
# Usage:
#   scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">> chaos harness, feed client, log and history unit tests (-race)"
go test -race -count=1 ./internal/chaos ./internal/feedclient \
	./internal/store ./internal/history

echo ">> end-to-end chaos day (-race)"
go test -race -count=1 -run TestChaosDayConvergesToFaultFreeLabels \
	-v ./internal/chaos

echo ">> chaos gate clean"
