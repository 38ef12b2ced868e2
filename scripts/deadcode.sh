#!/usr/bin/env bash
# Fails when a function or method in internal/ is linked into no binary.
# It builds every command and example and the benchmark module with
# inlining off, so that a call keeps its callee in the binary, then
# compares the functions each internal/ package compiles with the ones
# the binaries link. It prints each function no binary links and the
# allowlist below does not name, and each allowlist entry that no longer
# names such a function. Generic shape suffixes ("[go.shape.int]"),
# closures (".func1") and the pointer wrappers the compiler adds for
# value methods count as the function they belong to. A generic function
# that nothing instantiates compiles to no symbol, so it escapes the check.
#
# Usage:
#   scripts/deadcode.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Functions kept although no binary links them, each with its reason.
# "pkg.*" names a whole package.
allow="$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' <<'EOF'
# The fault-injection file system and its helpers: only tests import it.
chaos.*
# Textbook DBSCAN, the reference the cell passes are tested and fuzzed
# against; run is its loop.
cluster.DBSCANNaive
cluster.run
# The linear scan spatial.Grid.Within is tested against.
spatial.NewLinear
spatial.(*Linear).Within
# The exact great-circle distance that geo.Disc and Equirect are tested
# against.
geo.Haversine
# Two-pass PEA, the reference the one-pass engine is tested against.
core.ExtractAll
# The locked context read the lock-free snapshot is tested against.
ingest.(*Service).ContextLocked
ingest.(*aggregator).context
# Test seams: a crash switch, and the durable cut crash tests restart from.
ingest.(*Service).Abort
ingest.(*Service).Checkpoint
# Name the WAL file a crash may tear, for the crash-recovery tests.
ingest.WALPath
store.LogFiles
# The ledger's booking counts, which the simulator's tests check its
# failed-booking statistic against.
dispatch.(*Dispatcher).Totals
# Closes every slot up to a time. No production caller: a live feed that
# pauses mid-slot keeps that slot provisional until POST /ingest/flush.
ingest.(*Service).FlushUntil
EOF
)"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

mkdir "$out/bin"
go build -gcflags=all=-l -o "$out/bin/" \
	$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
(cd bench && go build -gcflags=all=-l -o "$out/bin/bench" .)

# Function symbols of internal/ packages, named relative to internal/,
# with shapes and closures folded into their function.
funcs() {
	go tool nm "$@" |
		sed -nE 's#^.* [Tt] taxiqueue/internal/(.*)$#\1#p' |
		sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' \
			-e 's/-fm$//' -e 's/(\.(func|gowrap|deferwrap)?[0-9]+)+$//' |
		sort -u
}

# shellcheck disable=SC2046 # one archive path per package
funcs $(go list -export -gcflags=all=-l -f '{{.Export}}' ./internal/...) >"$out/declared"
funcs "$out"/bin/* >"$out/linked"
printf '%s\n' "$allow" >"$out/allow"
# The compiler emits a wrapper per method of an interface type, for
# method expressions; calls through the interface never link them.
git grep -E '^type [A-Za-z0-9_]+ interface' -- 'internal/*.go' ':!*_test.go' |
	sed -E 's#^internal/(.*)/[^/]*\.go:type ([A-Za-z0-9_]+) .*#\1.\2#' >"$out/iface"

# A "(*T).M" next to a declared "T.M" is the compiler's wrapper.
awk -v linked="$out/linked" -v allow="$out/allow" -v iface="$out/iface" '
	BEGIN {
		while ((getline n <linked) > 0) used[n] = 1
		while ((getline n <allow) > 0) ok[n] = 0
		while ((getline n <iface) > 0) wrapped[n] = 1
	}
	{ decl[$0] = 1 }
	END {
		for (n in decl) {
			if (n in used) continue
			split(n, part, ".")
			if ((part[1] "." part[2]) in wrapped) continue
			if (match(n, /\(\*[^)]*\)/)) {
				v = substr(n, 1, RSTART - 1) substr(n, RSTART + 2, RLENGTH - 3) substr(n, RSTART + RLENGTH)
				if (v in decl) continue
			}
			pkg = substr(n, 1, index(n, ".")) "*"
			if (n in ok) { ok[n] = 1; continue }
			if (pkg in ok) { ok[pkg] = 1; continue }
			print "unlinked: " n
			bad++
		}
		for (n in ok) if (!ok[n]) { print "stale allowlist entry: " n; bad++ }
		exit bad > 0
	}' "$out/declared" | sort
