#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it with the
# arguments given. Everything the build and the run write (Go's build cache,
# work files and telemetry counters, the binary, the workloads' temporary
# logs) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod or internal/ beside bench/: this is not a checkout of the repository" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod go build -o "$out/bench" ./bench
exec "$out/bench" -tmp "$out/tmp" "$@"
