#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#   bash _samplebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
go build -C "$root/_samplebench" -o "$out/samplebench" .
exec "$out/samplebench" "$@"
