#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and through
# it the repo's packages) from source into .bench_build/ at the root of
# the checkout, then runs it from benchmark/ with the caller's arguments.
# Everything the Go tool keeps per user (build cache, module path,
# telemetry counters) is pointed into .bench_build/ as well, so a run
# writes nothing outside the checkout and needs no network.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/config" GOCACHE="$build/gocache" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$build/benchmark" .)
cd "$here"
exec "$build/benchmark" "$@"
