#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, the database files and the span
# dumps. The build fails, and the script exits non-zero, when the checkout
# does not hold the module the benchmark builds against.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
