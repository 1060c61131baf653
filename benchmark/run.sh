#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given. Everything the build and
# the run write (Go build cache, temporary files, the binary, the prepared
# graph and encoder) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/bin/emblookup-bench" ./benchmark
exec "$build/bin/emblookup-bench" "$@"
