#!/usr/bin/env bash
# Builds the LPPA benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload round-urban --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare <base-dir> <cand-dir>
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the result files.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/lppa-bench" .)
cd "$root"
exec "$build/lppa-bench" "$@"
