#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a nested module,
# so it can import repro/internal/...) and runs it from the checkout root.
# Every byte the Go toolchain writes (build cache, module cache, its config
# and telemetry directory) is kept under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh -selftest        # go test of the instrument itself
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
if [ "${1:-}" = "-selftest" ]; then
	exec go test -C "$here" -count=1 ./...
fi
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
