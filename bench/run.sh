#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the harness
# from source inside the checkout, then run it with the driver's flags.
# Everything go writes stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
