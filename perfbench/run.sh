#!/usr/bin/env bash
# Builds the ordering-service benchmark from the checkout it runs in and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lan-saturate --seed 1 --seconds 24 --trace 0
#
# Every build artifact, the Go build cache and the clusters' data
# directories stay under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's own state inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
