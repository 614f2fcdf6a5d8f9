#!/bin/sh
# Builds the benchmark from source inside the checkout (Go build cache,
# module cache, temporary files and the binary all under .bench_build) and
# runs it from bench/, so that nothing is read or written outside the
# checkout. Usage, from the repository root:
#   sh bench/run.sh -workload scan_exact -seed 1 -seconds 12 -trace 0
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" GOWORK=off
go build -C "$root/bench" -o "$build/vaq-bench" .
cd "$root/bench"
exec "$build/vaq-bench" "$@"
