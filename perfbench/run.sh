#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#   bash perfbench/run.sh --workload firehose --seed 1 --seconds 20 --trace 0
# Build output and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
