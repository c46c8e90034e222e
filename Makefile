GO ?= go

.PHONY: check build vet test race chaos bench bench-smoke obs-smoke vm-smoke serve-smoke inline-smoke fuzz-smoke lint loc

## check: the full pre-commit gate — build, vet, race-enabled tests.
check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: static gates — go vet, a gofmt diff check (fails listing
## any file that is not gofmt-clean), and the call-site table of
## scripts/udflookup: only the planner, the catalog and UDF registration
## may resolve a function name through Catalog.UDF, and outside
## internal/ffi only Engine.callUDF chooses between ffi.CallFusedVector
## and (ffi.Invoker).CallScalar (fusedMorsel also runs fused operators),
## and only Engine.callAggregate folds a UDF aggregate through a
## transport's CallAggregate (a fused aggregate's fold stays in process);
## only the transports in internal/ffi/transport.go run a scalar UDF's
## body ((*ffi.UDF).Invoke), so no executor calls a UDF around them;
## outside the PyLite runtime only ffi's eachRow iterates a generator
## UDF's rows ((*pylite.Interp).Iterate, (*pylite.Generator).Next, pylite.ValueIter;
## the UDO baseline in internal/bench/systems.go aside); only sqlengine's
## aggregateChunk (the one grouping and dedup) and joinChunk (the join's
## build) make a hash table (newHashTable); only sqlengine's materialize
## gathers an operator's output ((*Engine).gather), so no operator grows
## its own gather back; outside internal/ffi only the
## cost model's udfRowCost reads (*ffi.Stats).WrapNanosPerRow, so a UDF's
## body cost is derived in one place; outside the PyLite runtime only
## ffi's (*TraceOp).call runs a register program ((*pylite.Program).RunVM),
## so a fused trace has one VM dispatch.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./scripts/udflookup

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## loc: non-test Go lines per internal/* package (benchmark/ is its own
## module and is not counted) — the one number simplicity PRs quote.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%6d  %s\n' $$n $${d%/}; \
		total=$$((total + n)); \
	done; \
	printf '%6d  total\n' $$total

## chaos: the fault-injection sweep — every registered fault point is
## fired in turn and each query must degrade to a bit-identical native
## result or a typed QueryError, under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Breaker|Recover|Backoff|Interrupt|ProcessInvoker|Concurrent|Attribution' ./...



## fuzz-smoke: bounded runs of the four fuzzers (scripts/fuzz-smoke.sh),
## each for a default longer than its baseline pass (the re-run of its
## seeds and testdata/fuzz: each smoke starts from an empty fuzz cache),
## so that every smoke fuzzes new inputs, and printing
## how many it found; FUZZTIME overrides the defaults. FuzzDiff — native
## vs fused-cold vs fused-warm (plan-cache hit) vs fused-VM vs
## VM-with-forced-bailouts must stay bit-identical on every generated
## query on the monetdb, sqlite and postgresql profiles, with no fused
## arm falling back to native.
## FuzzExprEquiv — a compiled expression program must equal the row
## evaluator row by row at every morsel size and parallelism, and an
## expression as a GROUP BY key and as a SUM, MIN, MAX and COUNT
## argument must aggregate as the serial single-batch run does.
## FuzzJSONLoads — the single-pass JSON decoder must equal the
## encoding/json path it replaced, trailing data aside.
## FuzzDecodeChunk — any bytes decode to a chunk or fail with
## ErrCorruptChunk, never panic or over-allocate, and every decoded
## chunk round-trips through the encoder unchanged.
fuzz-smoke:
	./scripts/fuzz-smoke.sh

## obs-smoke: end-to-end diagnostics-plane check — starts the embedded
## HTTP server against a live engine and validates /metrics exposition,
## the flight recorder, a Chrome-trace round trip and the UDF profiler.
obs-smoke:
	$(GO) run ./cmd/qfusor-bench -obs-smoke

## vm-smoke: a micro-run of E20 (vectorized VM tier) — the VM tier
## must engage on the dispatch-bound sections, beat the closure tier,
## and expose its qfusor.vm.* counters as valid Prometheus series.
vm-smoke:
	$(GO) run ./cmd/qfusor-bench -vm-smoke

## serve-smoke: end-to-end query-server check over real HTTP — session
## open/prepare/execute, an overload burst that must shed with typed
## 429/503s, admission counters in /metrics and /debug/sessions, and a
## drain-bounded shutdown.
serve-smoke:
	$(GO) run ./cmd/qfusor-bench -serve-smoke

## inline-smoke: the relational-inlining tier end to end — an inlined
## query must return native-identical rows with zero FFI crossings, an
## opaque (loop-bearing) UDF must fall back cleanly, and the
## qfusor.inline.* decision counters must render as valid exposition.
inline-smoke:
	$(GO) run ./cmd/qfusor-bench -inline-smoke

## bench: run the paper experiments quickly, with a metrics snapshot.
bench:
	$(GO) run ./cmd/qfusor-bench -quick -obs BENCH_obs.json

## bench-smoke: just the morsel-executor A/B (serial vs parallel, with
## the result-identity check), refreshing BENCH_obs.json.
bench-smoke:
	$(GO) run ./cmd/qfusor-bench -quick -exp morsel-speedup -obs BENCH_obs.json
