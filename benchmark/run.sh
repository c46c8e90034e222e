#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from this directory with the arguments given. Everything the Go
# toolchain writes (build cache, module cache, temporary files,
# telemetry) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/qfbench" . >&2
exec "$build/qfbench" "$@"
