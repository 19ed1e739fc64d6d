#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the Go
# build cache, the binary, journals, traces — stays inside the checkout:
# .bench_build/ at its root and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/etxbenchmark" .
exec "$build/etxbenchmark" "$@"
