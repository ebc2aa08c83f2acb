#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Every argument passes through to the binary:
#
#   bash perfbench/run.sh --workload churn-small --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache, temporary files and tool config all
# live under .bench_build/, so the build writes nothing outside the
# checkout, and the module proxy is off: the benchmark has no dependency
# outside this repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
