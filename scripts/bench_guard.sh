#!/bin/sh
# bench_guard.sh [ceiling-file] [spans]
#
# Allocation-regression guard for the traffic hot path: runs BenchmarkFigure5
# (the paper's end-to-end load/latency sweep point) with telemetry disabled and
# fails if allocs/op or B/op exceeds its committed ceiling in
# bench_ceiling.txt. The explicit workers=1 path
# (BenchmarkFigure5Workers/workers_1) is held to the same ceilings: parallel
# support must not cost the serial path anything.
#
# The allocs/op ceiling is the contract behind the telemetry subsystem's "zero
# overhead when disabled" claim: probe hooks in the flit path must stay behind
# nil checks that the benchmark proves allocate nothing. The B/op ceiling is
# the sample recorder's: a store that re-copies itself as it grows shows up as
# a multiple of it (167 MB/op before the chunked recorder, 20 MB/op after).
# Lower a ceiling when an optimization lands; raising one needs a
# justification in the PR.
#
# With a second argument of "spans", the guard additionally runs
# BenchmarkFigure5Spans (span recording at full sampling) and reports its
# numbers for EXPERIMENTS.md. That run is informational only — the ceilings are
# never enforced against the instrumented path.
set -eu

ceiling_file=${1:-bench_ceiling.txt}
with_spans=${2:-}
go=${GO:-go}

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# measured <benchmark name> <unit>: the value the last run printed before <unit>.
measured() {
    awk -v name="$1" -v unit="$2" 'index($1, name) == 1 { for (i = 1; i <= NF; i++) if ($(i) == unit) print $(i-1) }' "$out"
}

# enforce <label> <benchmark name>: run it once and hold it to every
# "<unit> <ceiling>" line of the ceiling file.
enforce() {
    "$go" test -run='^$' -bench="$2\$" -benchtime=1x -benchmem . | tee "$out"
    units=$(awk '!/^[ \t]*(#|$)/ { print $1 }' "$ceiling_file")
    if [ -z "$units" ]; then
        echo "bench-guard: no ceiling found in $ceiling_file" >&2
        exit 2
    fi
    for unit in $units; do
        ceiling=$(awk -v unit="$unit" '$1 == unit { print $2; exit }' "$ceiling_file")
        got=$(measured "$2" "$unit")
        if [ -z "$got" ]; then
            echo "bench-guard: $2 produced no $unit value" >&2
            exit 2
        fi
        if [ "$got" -gt "$ceiling" ]; then
            echo "bench-guard: FAIL — $1 measured $got $unit, ceiling is $ceiling (bench_ceiling.txt)" >&2
            exit 1
        fi
        echo "bench-guard: OK — $1 $got $unit <= ceiling $ceiling"
    done
}

enforce "BenchmarkFigure5" BenchmarkFigure5
# The explicit -workers 1 path (simulation.workers set to 1) must be the same
# serial path, so the same ceilings apply.
enforce "workers=1 path" BenchmarkFigure5Workers/workers_1

# Sharded tracing cost, informational only: full-sampling flit tracing at
# workers=2 exercises per-shard lane recording plus the end-of-run stamp
# merge. The ceilings are never enforced against instrumented paths — they
# guard the tracing-DISABLED hot path above.
"$go" test -run='^$' -bench='BenchmarkFigure5TraceParallel$' -benchtime=1x -benchmem . | tee "$out"
trace_allocs=$(measured BenchmarkFigure5TraceParallel allocs/op)
echo "bench-guard: traced workers=2 path allocated ${trace_allocs:-?} allocs/op (informational, not enforced)"

if [ "$with_spans" = "spans" ]; then
    "$go" test -run='^$' -bench='BenchmarkFigure5Spans$' -benchtime=1x -benchmem . | tee "$out"
    spans_allocs=$(measured BenchmarkFigure5Spans allocs/op)
    echo "bench-guard: spans-enabled path allocated ${spans_allocs:-?} allocs/op (informational, not enforced)"
fi
