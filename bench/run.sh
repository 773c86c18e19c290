#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source with
# every build product inside the checkout (.bench_build/), then run it with
# the driver's arguments. For day-to-day use `go run -C bench .` does the
# same with your own Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
