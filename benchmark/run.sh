#!/bin/bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# everything the build writes inside the checkout: the driver runs
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of the checkout. Without the repository's go.mod beside
# it the build fails and the script exits non-zero.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp" benchmark/out
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
