#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this
# checkout's source, keeping every Go cache inside the checkout, then
# runs it with the arguments given (--workload --seed --seconds --trace).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/mascd ]; then
	echo "benchmark: no go.mod with cmd/mascd here: the benchmark builds mascd from this repository's source" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
