#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# flags given. Everything it writes — build cache, binary, scratch data —
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/pstorm-benchmark" ./benchmark
exec "$build/pstorm-benchmark" "$@"
