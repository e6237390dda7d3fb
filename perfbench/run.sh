#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload uni-window --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
