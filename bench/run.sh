#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. The Go build cache and
# temporary files are kept under .bench_build/ too, so that nothing is read or
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$root/.bench_build/bench" .
exec .bench_build/bench "$@"
