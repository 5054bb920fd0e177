#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload kv-saturate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
(cd "$here" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" "$@"
