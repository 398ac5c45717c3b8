#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Everything
# the Go toolchain writes (build cache, temporary files, binaries) stays
# under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload batch-c4 --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$root/.bench_build/bin"
(cd perfbench && go build -o "$root/.bench_build/bin/perfbench" .)
exec "$root/.bench_build/bin/perfbench" "$@"
