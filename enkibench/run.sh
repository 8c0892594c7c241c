#!/usr/bin/env bash
# Builds the settlement-day benchmark from the checkout's sources and
# runs it from the checkout root, passing every argument through:
#
#   bash enkibench/run.sh --workload city --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build cache) and run outputs (ledgers,
# spans) stay under .bench_build/ in the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOPATH="$build/gopath"
# Keeps the go command's per-user files (telemetry, env) in the checkout.
export XDG_CONFIG_HOME="$build/config"

(cd "$bench_dir" && go build -o "$build/enkibench" .) >&2

cd "$root"
exec "$build/enkibench" "$@"
