#!/usr/bin/env bash
# What BENCHMARK.json runs, from the root of a checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the benchmark from source and runs it with every file the
# build and the run write — Go's build cache, temporary directories,
# segment files — under .bench_build in the checkout, so nothing outside
# the checkout is touched and a second run reuses the first one's build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$root/bench" -o "$build/visdb-bench" .
cd "$root"
exec "$build/visdb-bench" "$@"
