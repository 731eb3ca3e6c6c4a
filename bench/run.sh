#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind stays under bench/out/build:
# the binary, the Go build cache, the compiler's temporary files and the go
# command's own configuration and counters.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -o "$build/pilot-bench-suite" .
exec "$build/pilot-bench-suite" "$@"
