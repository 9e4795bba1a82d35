#!/usr/bin/env bash
# Builds the benchmark harness from this directory and runs it. Every
# file the build and the run write lands under .bench_build/ at the root
# of the checkout: binaries, the Go build cache, scratch data.
#
#   bash bench/run.sh --workload kernel_scan --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh              # all four workloads, untraced and traced
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="${GOTMPDIR:-$build/tmp}"
# No module is ever downloaded (the repository has no dependencies), but
# the go command wants the cache's place named when HOME is not.
export GOMODCACHE="${GOMODCACHE:-$build/gomodcache}"
export GOTOOLCHAIN="${GOTOOLCHAIN:-local}"

go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" "$@"
