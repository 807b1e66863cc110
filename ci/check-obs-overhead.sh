#!/usr/bin/env bash
# check-obs-overhead.sh — fail the build if disabled observability ever
# costs anything on the scheduling hot path, if the decision audit on
# the profiling path outgrows its budget, or if the armed flight
# recorder exceeds its per-event allocation budget.
#
# Three layers of defence:
#   1. TestNilObserverZeroAlloc pins the nil-observer steady-state path
#      to zero heap allocations per invocation, and
#      TestProfilingObserverAllocBudget pins the enabled observer's
#      profiling path (fresh profile + 0.0005-step α search + Explain
#      every invocation) to no allocation beyond the unobserved run, and
#      under 2 KiB: the invocation record, its Explain included, lives
#      on the invocation's stack and the ring copies it.
#      TestInvocationRecordPaths checks the trace every record path
#      exports (one root slice per track, children within it, the
#      decision audit iff the invocation searched, the path's
#      instants), and TestObserverLeavesReportsUnchanged that observing
#      an invocation does not change its Report.
#      TestFunctionalInvocationZeroAlloc pins a warm public-API
#      invocation with a body and a GPU share to zero allocations,
#      plain, with GPUDispatchTimeout set and with an observer: the GPU
#      queue recycles its events and owns the dispatch-timeout timer.
#   2. BenchmarkParallelForObserverNil's allocs/op is compared against
#      the committed baseline (ci/obs-overhead-baseline.txt); any
#      regression past the baseline fails. Allocation counts are exact
#      and machine-independent, unlike ns/op, so this is CI-stable.
#   3. BenchmarkFlightRecord pins the enabled flight recorder to the
#      flight_allocs_per_event budget: recording must stay ring-writes
#      only, never allocation per event.
#
# The enabled-observer benchmark runs too and its overhead is printed
# for the log; beyond the decision-audit budget above, the enabled
# path's speed is not gated — observability is opt-in, its cost is
# allowed to evolve.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline_file=ci/obs-overhead-baseline.txt
baseline=$(awk '/^nil_allocs_per_op/ {print $2}' "$baseline_file")
if [[ -z "$baseline" ]]; then
    echo "error: no nil_allocs_per_op entry in $baseline_file" >&2
    exit 1
fi
flight_budget=$(awk '/^flight_allocs_per_event/ {print $2}' "$baseline_file")
if [[ -z "$flight_budget" ]]; then
    echo "error: no flight_allocs_per_event entry in $baseline_file" >&2
    exit 1
fi

echo "== pinned allocation tests =="
go test ./internal/core -run '^(TestNilObserverZeroAlloc|TestProfilingObserverAllocBudget)$' -count=1 -v
go test . -run '^(TestFunctionalInvocationZeroAlloc|TestInvocationRecordPaths|TestObserverLeavesReportsUnchanged)$' -count=1 -v

echo "== observer overhead benchmarks =="
out=$(go test ./internal/core -run '^$' -bench 'BenchmarkParallelForObserver' \
    -benchtime=500x -benchmem -count=1)
echo "$out"

nil_allocs=$(echo "$out" | awk '/^BenchmarkParallelForObserverNil/ {print $(NF-1)}')
if [[ -z "$nil_allocs" ]]; then
    echo "error: BenchmarkParallelForObserverNil produced no allocs/op figure" >&2
    exit 1
fi

if (( nil_allocs > baseline )); then
    echo "FAIL: nil-observer path allocates $nil_allocs allocs/op, baseline is $baseline" >&2
    echo "(observability must stay free when disabled; see internal/core/obs_overhead_test.go)" >&2
    exit 1
fi
echo "OK: nil-observer path at $nil_allocs allocs/op (baseline $baseline)"

echo "== flight recorder event budget =="
flight_out=$(go test ./internal/obs -run '^$' -bench 'BenchmarkFlightRecord' \
    -benchtime=10000x -benchmem -count=1)
echo "$flight_out"

flight_allocs=$(echo "$flight_out" | awk '/^BenchmarkFlightRecord/ {print $(NF-1)}')
if [[ -z "$flight_allocs" ]]; then
    echo "error: BenchmarkFlightRecord produced no allocs/op figure" >&2
    exit 1
fi
if (( flight_allocs > flight_budget )); then
    echo "FAIL: armed flight recorder allocates $flight_allocs allocs/event, budget is $flight_budget" >&2
    echo "(event recording must stay preallocated-ring writes; see internal/obs/flight.go)" >&2
    exit 1
fi
echo "OK: flight recorder at $flight_allocs allocs/event (budget $flight_budget)"
