#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the root of the
# checkout. Everything the build and the run write — Go's build cache, the
# binary, every checkpoint store — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/bench" && go build -o "$out/lowdiff-bench" .)
cd "$root"
exec "$out/lowdiff-bench" "$@"
