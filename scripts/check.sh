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

# The ring all-reduce reuses each rank's send buffers across calls, and
# whether a buffer is free when it is rewritten depends on scheduling:
# repeat the ring tests so a reuse race shows up.
echo "== go test -race -count=20 -run 'Ring' (comm: ring send-buffer reuse) =="
go test -race -count=20 -timeout 9m -run 'Ring' ./internal/comm/

echo "all checks passed"
