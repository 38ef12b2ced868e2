#!/usr/bin/env bash
# Builds the benchmark and runs one workload, from the root of a checkout:
#
#   bash bench/run.sh --workload read_steady --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes (Go caches, binaries, stores, logs and
# traces) stays under .bench_build/ in the checkout. The last line of its
# standard output is the result JSON; progress goes to standard error.
set -euo pipefail

root="$(pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache" GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$work/bin/bench" .)
exec "$work/bin/bench" "$@"
