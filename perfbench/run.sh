#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve|ingest|churn --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build output (binary, Go build cache,
# temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

if ! go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (the benchmark needs the repository's sources next to perfbench/)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
