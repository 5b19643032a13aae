#!/usr/bin/env bash
# Builds the OpenDesc benchmark from source and runs one workload:
#
#   bash odbench/run.sh --workload hw-min --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact, cache and span dump
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/odbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/odbench" && go build -o "$out/odbench" .) >&2
exec "$out/odbench" -out "$out" "$@"
