#!/usr/bin/env bash
# check-bench-regression.sh — compare a `go test -bench` output file
# against a committed BENCH_*.json baseline and fail on a throughput
# regression.
#
# Usage:
#   ci/check-bench-regression.sh <bench-output.txt> <baseline.json> [prefix]
#
#   <bench-output.txt>  output of `go test -bench ... -benchmem` (the
#                       file CI already tees to an artifact)
#   <baseline.json>     committed baseline with a "results" map keyed by
#                       sub-benchmark name, each entry carrying
#                       decisions_per_sec (BENCH_hotpath.json)
#   [prefix]            benchmark name prefix to strip, e.g.
#                       "BenchmarkHotPath/" (default: strip up to the
#                       first "/")
#
# A sub-benchmark fails when its measured decisions/s drops below
# baseline × (1 − EAS_BENCH_TOLERANCE). The default tolerance is 0.20
# (20%): ns/op is machine-dependent, but a >20% drop on the same class
# of CI runner is a real regression, not noise. Override with e.g.
# EAS_BENCH_TOLERANCE=0.5 for a noisy runner. Baseline entries missing
# from the output fail the check — a renamed or deleted sub-benchmark
# must rebaseline, not silently drop out of coverage.
set -euo pipefail
cd "$(dirname "$0")/.."

out_file=${1:?usage: check-bench-regression.sh <bench-output.txt> <baseline.json> [prefix]}
baseline_file=${2:?usage: check-bench-regression.sh <bench-output.txt> <baseline.json> [prefix]}
prefix=${3:-}
tolerance=${EAS_BENCH_TOLERANCE:-0.20}

# Parse the bench output into "name decisions_per_sec" pairs: strip the
# BenchmarkX/ prefix and the -N GOMAXPROCS suffix, pick the value whose
# unit column is decisions/s.
measured=$(awk -v prefix="$prefix" '
/^Benchmark/ {
    name = $1
    if (prefix != "") sub("^" prefix, "", name)
    else sub(/^[^\/]*\//, "", name)
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "decisions/s") print name, $i
    }
}' "$out_file")

if [[ -z "$measured" ]]; then
    echo "error: no decisions/s figures found in $out_file" >&2
    exit 1
fi

# Extract "name decisions_per_sec" pairs from the baseline JSON. The
# files are machine-written with one key/value per line, so line-based
# parsing is exact for this schema.
baseline=$(awk '
/^    "[^"]+": \{$/ { key = $1; gsub(/[":{]/, "", key) }
/"decisions_per_sec":/ { val = $2; gsub(/[,]/, "", val); print key, val }
' "$baseline_file")

if [[ -z "$baseline" ]]; then
    echo "error: no decisions_per_sec entries parsed from $baseline_file" >&2
    exit 1
fi

fail=0
while read -r name base; do
    got=$(echo "$measured" | awk -v n="$name" '$1 == n {print $2; exit}')
    if [[ -z "$got" ]]; then
        echo "FAIL: baseline entry $name missing from $out_file (rebaseline $baseline_file if it was renamed)" >&2
        fail=1
        continue
    fi
    verdict=$(awk -v got="$got" -v base="$base" -v tol="$tolerance" 'BEGIN {
        floor = base * (1 - tol)
        if (got + 0 < floor) printf "FAIL %.0f", floor
        else printf "ok %.0f", floor
    }')
    if [[ $verdict == FAIL* ]]; then
        echo "FAIL: $name at $got decisions/s, below ${verdict#FAIL } (baseline $base - ${tolerance} tolerance)" >&2
        fail=1
    else
        echo "ok: $name at $got decisions/s (baseline $base, floor ${verdict#ok })"
    fi
done <<<"$baseline"

if (( fail )); then
    echo "benchmark regression against $baseline_file (rebaseline deliberately, never to paper over a regression)" >&2
    exit 1
fi
echo "OK: all $(echo "$baseline" | wc -l) sub-benchmarks within ${tolerance} of $baseline_file"
