#!/bin/sh
# Entry point of BENCHMARK.json: build the harness from source into
# .bench_build/ at the root of the checkout, then run it there. Every
# file the go command writes (build cache included) stays inside the
# checkout. Arguments are passed through; see bench/README.md.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/kdb-bench" .)
cd "$root"
exec "$build/kdb-bench" "$@"
