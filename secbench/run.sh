#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash secbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/ (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off

go -C "$here" build -o "$out/bin/secbench" . >&2
exec "$out/bin/secbench" -root "$root" "$@"
