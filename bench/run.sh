#!/bin/sh
# Builds the benchmark inside the checkout and runs it: the command named in
# ../BENCHMARK.json. Everything the build and the run write stays under
# ../.bench_build and ./out.
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/galactos-bench" .
exec "$build/galactos-bench" "$@"
