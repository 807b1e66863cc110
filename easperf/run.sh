#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash easperf/run.sh --workload decide --seed 1 --seconds 20 --trace 0
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

(cd "$root/easperf" && go build -o "$out/easperf" .)
exec "$out/easperf" "$@"
