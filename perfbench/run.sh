#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's source and runs it.
# Run from the repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
