#!/bin/sh
# Repository health gate: formatting, vet, the custom lowdifflint
# invariant analyzers, and the fault-tolerance test surface under the
# race detector. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet (copylocks: locks passed, received or returned by value) =="
go vet ./...

echo "== lowdifflint (determinism, checkederr, floateq) =="
go run ./cmd/lowdifflint ./...

# Each race step's -timeout is about three times its slowest package's
# measured time, so a leaked lock fails the step within minutes, naming the
# hung test, instead of after go test's default ten.
echo "== go test -race (core, storage, storaged, recovery, obs, trace, data plane, optimizer kernels, peer comm, cluster sim) =="
go test -race -timeout 4m ./internal/core/... ./internal/storage/... ./internal/storaged/... ./internal/recovery/... \
    ./internal/obs/... ./internal/trace/... ./internal/parallel/... ./internal/compress/... \
    ./internal/optim/... ./internal/checkpoint/... ./internal/comm/... ./internal/cluster/...

# These two packages hid one-in-N ordering bugs (a scheduling-dependent gauge
# in a determinism test, a release-after-reply in the daemon) behind a
# single-shot gate; repeat them so a one-in-N failure shows up in the gate.
echo "== go test -race -count=5 (obs, storaged) =="
go test -race -count=5 -timeout 3m ./internal/obs/... ./internal/storaged/...

# A full checkpoint persists past Run's return, so the tests that read a
# store, an event log or a replica's persisted iteration after Run race the
# persister unless they join it: repeat them so a missing join shows up.
echo "== go test -race -count=10 (core: goldens, Plus, full persists, PP boundary fulls, fault ladder) =="
go test -race -count=10 -timeout 1m -run 'Golden|Plus|EngineCheckpointsWritten|DisableDiffs|PPBoundary|FaultLadder' ./internal/core/

# Every collective meets at one rendezvous: the all-reduce reads the other
# ranks' vectors between two of them, and exchange hands out one reused
# result slice. Whether a rank reaches its next collective while another
# still reads depends on scheduling, so repeat the collective tests at one,
# two and eight Ps for a missed hand-off to show up.
for procs in 1 2 8; do
    echo "== go test -race -count=20 GOMAXPROCS=$procs (comm: rendezvous) =="
    GOMAXPROCS=$procs go test -race -count=20 -timeout 8m -run 'Ring|Barrier|AllGather|Mismatch' ./internal/comm/
done

echo "== fuzz smoke (AVX2 Top-K filter, all-reduce against the ring) =="
go test -run='^$' -fuzz='^FuzzKeep$' -fuzztime=10s ./internal/compress
go test -run='^$' -fuzz='^FuzzRingAllReduceMatchesReference$' -fuzztime=10s ./internal/comm

echo "all checks passed"
