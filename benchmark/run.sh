#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes stays under .bench_build/ and benchmark/out/: the go
# tool's caches, module path and telemetry directory are pointed there too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -o "$build/stwave-benchmark" ./benchmark
exec "$build/stwave-benchmark" "$@"
