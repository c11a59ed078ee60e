#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current directory (the checkout root) and runs it
# with the given arguments. Everything it writes — Go build cache, binary,
# bench/out/ — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/predplace-bench" .)
exec "$build/predplace-bench" -out "$here/out" -spec "$here/../BENCHMARK.json" "$@"
