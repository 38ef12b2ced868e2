#!/usr/bin/env bash
# Prints the repo's size as ROADMAP asks every change to report it: the
# number of non-test Go lines outside bench/ (the benchmark module).
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	-exec cat {} + | wc -l
