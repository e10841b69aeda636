#!/usr/bin/env bash
# Builds odinbench from this checkout's sources into .bench_build/ and runs
# it with the given arguments. Run it from the repository root:
#
#   bash cmd/odinbench/run.sh --workload sim-fig8 --seed 1 --seconds 20 --trace 0
#
# Every cache and output of the Go toolchain stays under .bench_build/, and
# no module is fetched: the benchmark imports only this repository and the
# standard library.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/odinbench" . >&2
exec "$out/odinbench" "$@"
