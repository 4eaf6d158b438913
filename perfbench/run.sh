#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload batch-quantile --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, result and trace files) stays under the build
# directory, .bench_build unless CARGO_TARGET_DIR names another one.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)

# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# inside the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --out "$out" "$@"
