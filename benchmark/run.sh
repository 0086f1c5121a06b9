#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload recipe --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# Go's build cache, its config and telemetry directory, and GOPATH. The
# build needs the repository's root module next to this directory, so it
# fails fast in a tree holding only the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/machbench" .
exec "$out/machbench" "$@"
