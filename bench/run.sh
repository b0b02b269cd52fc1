#!/usr/bin/env bash
# Launcher of the benchmark, run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It keeps everything the toolchain and the benchmark write inside the
# checkout, under .bench_build: the build cache, the binaries, and the
# journals of the runs. The benchmark itself builds cmd/tpcserve from the
# checkout it runs in.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
