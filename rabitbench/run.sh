#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash rabitbench/run.sh --workload gateway_fleet --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, Go configuration and telemetry) stays under .bench_build/
# in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${PWD}/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/rabitbench" .)
exec "$out/rabitbench" "$@"
