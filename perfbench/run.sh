#!/usr/bin/env bash
# Builds the Flint benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload pagerank-revoke --seed 42 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every file the build and the run
# produce (Go build cache, binary, traces) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
