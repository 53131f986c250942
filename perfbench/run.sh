#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload table2_signoff --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ of the
# current directory: the Go build cache, temporary files, the binary and
# the traced run's CPU profile.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$root/perfbench" -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
