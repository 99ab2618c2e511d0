#!/bin/sh
# Benchmark baseline refresh: runs the data-plane composite benchmarks
# (serial baseline vs k-way/pooled compress+merge, pooled decompress) and the
# restore path's decode benchmarks (B/op and allocs/op only) and writes them
# to BENCH_dataplane.json, then the step-phase profiler overhead
# benchmarks (enabled recorder vs nil fast path) into BENCH_trace.json,
# and finally the checkpoint pool's wire path (one full-sized object through Remote ->
# storaged -> Tiered(File), up and down) into BENCH_pool.json
# (benchmark name -> ns/op, B/op, allocs/op).
#
#   BENCHTIME=1x scripts/bench.sh     # CI smoke: one iteration per benchmark
#   BENCH_DATAPLANE_OUT=/tmp/d.json BENCH_POOL_OUT=/tmp/p.json scripts/bench.sh
#
# Run from the repository root. The baselines are checked in so reviewers can
# spot order-of-magnitude regressions in diffs; ns/op values are machine-
# dependent and only comparable against runs on the same hardware.
#
# Before any baseline is rewritten, the pooled-merge benchmark is re-run
# against the CHECKED-IN BENCH_dataplane.json and its allocs/op and B/op
# gated (ns/op never is — see cmd/benchfmt). Set GATE_BENCHTIME to trade
# gate runtime for stability, or SKIP_ALLOC_GATE=1 to bypass when
# deliberately re-baselining a known regression.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
BENCH_DATAPLANE_OUT="${BENCH_DATAPLANE_OUT:-BENCH_dataplane.json}"
BENCH_TRACE_OUT="${BENCH_TRACE_OUT:-BENCH_trace.json}"
BENCH_POOL_OUT="${BENCH_POOL_OUT:-BENCH_pool.json}"
GATE_BENCHTIME="${GATE_BENCHTIME:-100x}"

if [ "${SKIP_ALLOC_GATE:-0}" != "1" ] && [ -f BENCH_dataplane.json ]; then
    echo "== allocs/op gate: pooled merge vs checked-in BENCH_dataplane.json (benchtime $GATE_BENCHTIME) ==" >&2
    go test -run '^$' -bench 'DataplaneCompressMerge' -benchmem -benchtime "$GATE_BENCHTIME" ./internal/compress |
        go run ./cmd/benchfmt -gate BENCH_dataplane.json -gate-match kway-pooled -slack 0.25
fi

# Restore-path gate: decoding a full checkpoint may allocate the decoded
# vectors and nothing else of their size (1.003x the state; the two-copy
# decoder this replaced allocated 3.0x).
if [ "${SKIP_ALLOC_GATE:-0}" != "1" ] && [ -f BENCH_dataplane.json ]; then
    echo "== allocs/op gate: full-checkpoint decode vs checked-in BENCH_dataplane.json (benchtime $GATE_BENCHTIME) ==" >&2
    go test -run '^$' -bench 'RestoreFull' -benchmem -benchtime "$GATE_BENCHTIME" ./internal/checkpoint |
        go run ./cmd/benchfmt -gate BENCH_dataplane.json -gate-match RestoreFull -slack 0.25
fi

# Profiler gates: the enabled-recorder step-span path and the analyzer
# (BuildProfile, exact per-phase quantiles over every span) must not grow
# their allocation footprint (the nil fast path is pinned at zero allocs
# by TestNilFastPathAllocationFree; benchfmt skips zero baselines, so only
# the enabled path is gated here).
if [ "${SKIP_ALLOC_GATE:-0}" != "1" ] && [ -f BENCH_trace.json ]; then
    echo "== allocs/op gate: trace step spans and BuildProfile vs checked-in BENCH_trace.json (benchtime $GATE_BENCHTIME) ==" >&2
    trgate=$(mktemp)
    go test -run '^$' -bench 'TraceStepSpansEnabled|TraceBuildProfile' -benchmem -benchtime "$GATE_BENCHTIME" ./internal/trace >"$trgate"
    go run ./cmd/benchfmt -gate BENCH_trace.json -gate-match StepSpansEnabled -slack 0.25 <"$trgate"
    go run ./cmd/benchfmt -gate BENCH_trace.json -gate-match BuildProfile -slack 0.25 <"$trgate"
    rm -f "$trgate"
fi

# Pool wire-path gate: a put may allocate the stored copy of the object and
# nothing else of its size, a get nothing of its size at all. The get
# baseline is a few KB, against which one miss in the frame pool (1 MiB,
# spread over the run) is a large factor, so its slack is wide: the gate is
# there to catch a copy of the object coming back, which is a factor of a
# thousand.
if [ "${SKIP_ALLOC_GATE:-0}" != "1" ] && [ -f BENCH_pool.json ]; then
    echo "== allocs/op gate: pool wire path vs checked-in BENCH_pool.json (benchtime $GATE_BENCHTIME) ==" >&2
    pooltmp=$(mktemp)
    go test -run '^$' -bench 'PoolFull' -benchmem -benchtime "$GATE_BENCHTIME" ./internal/storaged >"$pooltmp"
    go run ./cmd/benchfmt -gate BENCH_pool.json -gate-match PoolFull/put -slack 0.25 <"$pooltmp"
    go run ./cmd/benchfmt -gate BENCH_pool.json -gate-match PoolFull/get -slack 9 <"$pooltmp"
    rm -f "$pooltmp"
fi

dptmp=$(mktemp)
trap 'rm -f "$dptmp"' EXIT

echo "== go test -bench Dataplane ./internal/compress (benchtime $BENCHTIME) ==" >&2
go test -run '^$' -bench 'Dataplane' -benchmem -benchtime "$BENCHTIME" ./internal/compress |
    tee "$dptmp" >&2
# The restore benchmarks are kept for their allocation figures only: their
# ns/op is written as 0 so the baseline carries no machine-dependent number.
echo "== go test -bench Restore ./internal/checkpoint (benchtime $BENCHTIME) ==" >&2
go test -run '^$' -bench 'Restore' -benchmem -benchtime "$BENCHTIME" ./internal/checkpoint |
    tee /dev/stderr | sed -E 's/[0-9.]+ ns\/op/0 ns\/op/' >>"$dptmp"

go run ./cmd/benchfmt <"$dptmp" >"$BENCH_DATAPLANE_OUT"
echo "wrote $BENCH_DATAPLANE_OUT" >&2

trtmp=$(mktemp)
trap 'rm -f "$dptmp" "$trtmp"' EXIT

echo "== go test -bench Trace ./internal/trace (benchtime $BENCHTIME) ==" >&2
go test -run '^$' -bench 'BenchmarkTrace' -benchmem -benchtime "$BENCHTIME" ./internal/trace |
    tee "$trtmp" >&2

go run ./cmd/benchfmt <"$trtmp" >"$BENCH_TRACE_OUT"
echo "wrote $BENCH_TRACE_OUT" >&2

pltmp=$(mktemp)
trap 'rm -f "$dptmp" "$trtmp" "$pltmp"' EXIT

echo "== go test -bench PoolFull ./internal/storaged (benchtime $BENCHTIME) ==" >&2
go test -run '^$' -bench 'PoolFull' -benchmem -benchtime "$BENCHTIME" ./internal/storaged |
    tee "$pltmp" >&2

go run ./cmd/benchfmt <"$pltmp" >"$BENCH_POOL_OUT"
echo "wrote $BENCH_POOL_OUT" >&2
