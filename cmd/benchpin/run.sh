#!/usr/bin/env bash
# Entry point of the benchmark. Builds benchpin from this checkout's source,
# then runs it with the given arguments, for example
#
#   bash cmd/benchpin/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
#   bash cmd/benchpin/run.sh -seed 1            # all four workloads
#
# Everything the build and the run write (Go build cache, binaries, scratch
# stores, results, traces) lands under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd cmd/benchpin && go build -o "$build/benchpin" .)
exec "$build/benchpin" "$@"
