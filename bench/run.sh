#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given flags (see README.md). Run it from the repository root. The
# build stays inside the checkout: its own Go build cache, no user Go
# configuration, no network, no toolchain download.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOENV=off GOFLAGS= GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/danas-bench" .
exec "$build/danas-bench" "$@"
