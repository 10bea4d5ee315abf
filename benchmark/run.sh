#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload mem-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the root
# of the checkout: the Go build cache, the binary, temp files and the traced
# pass's span file (one is kept; each run clears the previous one).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

rm -rf "$build/tmp"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The module replaces the product module with "..", so the build fails — and
# this script exits non-zero — when the repository's sources are not there.
(cd "$here" && go build -buildvcs=false -o "$build/paris-benchmark" .) >&2

exec "$build/paris-benchmark" "$@"
