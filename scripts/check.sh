#!/bin/sh
# Pre-commit gate: everything must build, vet clean, and pass the test
# suite with the race detector on (the morsel executor and the
# observability layer run concurrently, so -race is not optional).
# GOMAXPROCS=8 forces real goroutine interleaving for the parallel
# executor paths even on small CI hosts.
set -eux
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# Formatting gate: gofmt must produce no diffs.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on: $unformatted" >&2
    exit 1
fi
# Call-site gate (scripts/udflookup): the planner resolves each function
# name once per statement, so no other non-test code may look a UDF up
# by name through Catalog.UDF (the catalog and UDF registration aside);
# and outside internal/ffi only Engine.callUDF chooses between running a
# fused wrapper (ffi.CallFusedVector) and the transport
# ((ffi.Invoker).CallScalar), and only Engine.callAggregate folds a UDF
# aggregate through a transport's CallAggregate (a fused aggregate's fold
# stays in process); only the transports in
# internal/ffi/transport.go run a scalar UDF's body ((*ffi.UDF).Invoke),
# so no executor calls a UDF around them; and outside the PyLite runtime only ffi's
# eachRow iterates a generator UDF's rows ((*pylite.Interp).Iterate,
# (*pylite.Generator).Next, pylite.ValueIter; the UDO baseline in
# internal/bench/systems.go aside); and only sqlengine's aggregateChunk
# (the one grouping and dedup) and joinChunk (the join's build) make a
# hash table (newHashTable); and only sqlengine's materialize gathers an
# operator's output ((*Engine).gather); and outside internal/ffi only the cost
# model's udfRowCost reads (*ffi.Stats).WrapNanosPerRow, so a UDF's body
# cost is derived in one place; and outside the PyLite runtime only ffi's
# (*TraceOp).call runs a register program ((*pylite.Program).RunVM), so a
# fused trace has one VM dispatch.
go run ./scripts/udflookup
GOMAXPROCS=8 go test -race ./...
# Chaos sweep: fire every registered fault point and require graceful
# degradation (native-identical result or typed QueryError, no crash).
# The sweep also carries the concurrency differential (two callers on
# one engine, every result native-identical, no foreign cancellation) at
# its full count of overlapped executions per reproducer, and the
# per-query attribution tests. QFUSOR_CONCURRENT_EXECS can be lowered for
# fast local iteration (the plain `go test` default is 200); at 2 000 the
# server package alone needs ~16 min under -race, hence the timeout.
QFUSOR_CONCURRENT_EXECS="${QFUSOR_CONCURRENT_EXECS:-2000}" GOMAXPROCS=8 go test -race -count=1 -timeout 60m \
    -run 'Chaos|Fault|Breaker|Recover|Backoff|Interrupt|ProcessInvoker|Concurrent|Attribution' ./...
# Diagnostics-plane smoke: real HTTP against the embedded server —
# /metrics must parse as Prometheus 0.0.4 with the required series,
# /debug/queries must show the flight recorder, and a recorded trace
# must round-trip as valid Chrome trace_event JSON.
go run ./cmd/qfusor-bench -obs-smoke
# VM-tier smoke: an E20 micro-run — the bytecode VM must engage on the
# dispatch-bound sections, beat the closure tier, keep bail_rows at
# zero, and expose its qfusor.vm.* counters in valid Prometheus form.
go run ./cmd/qfusor-bench -vm-smoke
# Query-server smoke: the serving plane over real HTTP — sessions and
# prepared statements work, an overload burst sheds with typed 429/503
# responses instead of collapsing, the admission counters show up in
# /metrics and /debug/sessions, and shutdown drains within its grace.
go run ./cmd/qfusor-bench -serve-smoke
# Inlined-tier smoke: a guarded straight-line UDF query at the default
# tier must inline and come back native-identical with zero FFI
# crossings (the Froid contract), an opaque UDF must fall back, and
# the qfusor.inline.* counters must appear in valid Prometheus form.
go run ./cmd/qfusor-bench -inline-smoke
# Fuzz smokes (scripts/fuzz-smoke.sh): FuzzDiff (native vs fused-cold
# vs fused-warm vs fused-VM vs VM-with-forced-bailouts on the monetdb,
# sqlite and postgresql profiles), FuzzExprEquiv (compiled expression
# programs vs the row evaluator), FuzzJSONLoads and FuzzDecodeChunk, each
# for a default longer than its baseline pass, printing the new inputs
# each found. FUZZTIME overrides the defaults for fast local iteration.
./scripts/fuzz-smoke.sh
