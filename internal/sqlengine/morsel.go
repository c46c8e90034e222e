package sqlengine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
)

// FaultMorsel is the chaos hook inside every morsel worker, fired once
// per claimed morsel.
var FaultMorsel = faultinject.Register("morsel.worker")

// Morsel-driven parallel execution: every partitionable operator splits
// its input into fixed-size morsels and a per-query worker pool pulls
// them from a shared counter until the input is drained (Leis et al.'s
// morsel model, adapted to this engine's materialized chunks). Blocking
// operators run per-worker partial state over the morsels and merge at
// the barrier; the merge rules live with each operator.

// Engine-wide morsel metrics (obs.Default).
var (
	mMorsels     = obs.Default.Counter("engine.morsels")
	mMorselRows  = obs.Default.Counter("engine.morsel_rows")
	mParallelOps = obs.Default.Counter("engine.parallel_ops")
	mMergeNanos  = obs.Default.Counter("engine.merge_nanos")
	mMorselNanos = obs.Default.Histogram("engine.morsel_nanos")
)

// defaultMorselSize is the fixed morsel row count for columnar mode;
// ModeChunked reuses the engine's ChunkSize so operator boundaries stay
// aligned with the pipeline's vector size.
const defaultMorselSize = 2048

// minParallelRows is the input size below which the scheduling overhead
// of the pool outweighs any win and operators stay serial.
const minParallelRows = 256

// Workers resolves the engine's worker-pool size: Parallelism when
// positive, otherwise (0 = auto) every core the runtime sees.
func (e *Engine) Workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// morselSize returns the fixed morsel row count for this engine:
// ModeChunked follows ChunkSize, any explicit MorselSize wins next,
// and defaultMorselSize covers the rest.
func (e *Engine) morselSize() int {
	if e.Mode == ModeChunked && e.ChunkSize > 0 {
		return e.ChunkSize
	}
	if e.MorselSize > 0 {
		return e.MorselSize
	}
	return defaultMorselSize
}

// morselSpan is one claimed input range.
type morselSpan struct{ lo, hi int }

// morselsFor fixes the split of n rows for this engine: fixed-size
// morsels when the pool can run them, one batch for a serial columnar
// engine (operator-at-a-time semantics — Parallelism 1 is the legacy
// serial A/B baseline and must keep its single-crossing structure).
// ModeChunked always splits at ChunkSize, serial or not.
func (e *Engine) morselsFor(n int) []morselSpan {
	size := e.morselSize()
	if e.Mode != ModeChunked && (e.Workers() <= 1 || n < minParallelRows) {
		size = n
	}
	return morselPlan(n, size)
}

// morselPlan fixes the split of n rows into morsels of the given size.
func morselPlan(n, size int) []morselSpan {
	if size <= 0 {
		size = n
	}
	if n <= 0 {
		return []morselSpan{{0, 0}}
	}
	spans := make([]morselSpan, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		spans = append(spans, morselSpan{lo, hi})
	}
	return spans
}

// runMorsels drives fn over the morsels of [0, n) with the engine's
// worker pool: workers claim morsels from a shared atomic counter until
// the input is drained. fn receives (worker, morsel index, lo, hi) and
// must only touch worker- or morsel-local state. The returned worker
// count is 1 when the input ran serially (small input or Parallelism 1).
// Per-morsel counts and worker utilization are recorded on the query
// span (nil-safe) and the engine-wide metrics.
//
// Every worker checks the query context before claiming a morsel, so a
// cancelled query stops within one morsel; and every fn call runs under
// panic recovery, so one poisoned morsel fails its query instead of
// killing the pool (or the process).
func (e *Engine) runMorsels(ectx *execCtx, n int, fn func(worker, m, lo, hi int) error) (int, error) {
	sp := ectx.span
	ctx := ectx.ctx
	// runFn is the guarded worker body: chaos hook, then fn, with any
	// panic converted to this morsel's error.
	runFn := func(w, m, lo, hi int) (err error) {
		defer resilience.Recover(&err)
		if faultinject.Armed() {
			if ferr := faultinject.Fire(FaultMorsel); ferr != nil {
				return ferr
			}
		}
		return fn(w, m, lo, hi)
	}
	spans := e.morselsFor(n)
	workers := e.Workers()
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers <= 1 || n < minParallelRows {
		for m, s := range spans {
			if err := ctx.Err(); err != nil {
				return 1, err
			}
			start := time.Now()
			if err := runFn(0, m, s.lo, s.hi); err != nil {
				return 1, err
			}
			mMorselNanos.Observe(float64(time.Since(start).Nanoseconds()))
		}
		mMorsels.Add(int64(len(spans)))
		mMorselRows.Add(int64(n))
		ectx.led.AddMorsels(len(spans))
		sp.AddInt("morsels", int64(len(spans)))
		// A deadline that expired while the last morsel ran still counts:
		// context semantics win over an answer the caller gave up on.
		return 1, ctx.Err()
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
		busy  = make([]int64, workers)
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	wall := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= len(spans) {
					return
				}
				errMu.Lock()
				failed := first != nil
				errMu.Unlock()
				if failed {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				start := time.Now()
				err := runFn(w, m, spans[m].lo, spans[m].hi)
				d := time.Since(start).Nanoseconds()
				busy[w] += d
				mMorselNanos.Observe(float64(d))
				if err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if first == nil {
		// See the serial path: report a deadline that expired mid-drain.
		first = ctx.Err()
	}
	elapsed := time.Since(wall).Nanoseconds()
	mParallelOps.Inc()
	mMorsels.Add(int64(len(spans)))
	mMorselRows.Add(int64(n))
	ectx.led.AddMorsels(len(spans))
	sp.AddInt("morsels", int64(len(spans)))
	sp.SetInt("workers", int64(workers))
	if elapsed > 0 {
		var total int64
		for _, b := range busy {
			total += b
		}
		// Utilization in permille: busy worker-nanos over wall * workers.
		sp.SetInt("worker_util_pm", total*1000/(elapsed*int64(workers)))
	}
	return workers, first
}

// mergeTimer records barrier-merge time on the span and the engine-wide
// counter. Usage: defer e.mergeTimer(sp)().
func (e *Engine) mergeTimer(sp *obs.Span) func() {
	start := time.Now()
	return func() {
		d := time.Since(start).Nanoseconds()
		mMergeNanos.Add(d)
		sp.AddInt("merge_nanos", d)
	}
}

// runPartitioned executes fn over row ranges of in — morsels driven by
// the worker pool — and concatenates the partial outputs in input
// order. The contract matches the serial path exactly: fn sees
// contiguous slices of in and outputs one chunk per slice.
func (e *Engine) runPartitioned(ectx *execCtx, in *data.Chunk, n int, fn func(*data.Chunk) (*data.Chunk, error)) (*data.Chunk, error) {
	spans := e.morselsFor(n)
	if len(spans) == 1 && e.Workers() <= 1 {
		// Serial single-batch fast path: no slicing, no concat.
		return fn(in)
	}
	outs := make([]*data.Chunk, len(spans))
	_, err := e.runMorsels(ectx, n, func(_, m, lo, hi int) error {
		out, err := fn(in.Slice(lo, hi))
		if err != nil {
			return err
		}
		outs[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.concat(ectx.span, outs[0].Schema(), outs), nil
}

// concat joins the morsels' outputs in input order into one chunk of the
// schema (a lone output is the result as it is).
func (e *Engine) concat(sp *obs.Span, schema data.Schema, parts []*data.Chunk) *data.Chunk {
	if len(parts) == 1 {
		return parts[0]
	}
	defer e.mergeTimer(sp)()
	return data.Concat(schema, parts)
}

// takeParallel materializes in.Take(idx) across the worker pool: each
// worker gathers a contiguous range of idx straight into its rows of one
// preallocated output (identical output to the serial Take).
func (e *Engine) takeParallel(ectx *execCtx, in *data.Chunk, idx []int) *data.Chunk {
	if len(idx) < minParallelRows || e.Workers() <= 1 {
		return in.Take(idx)
	}
	out := &data.Chunk{Cols: make([]*data.Column, len(in.Cols))}
	for i, c := range in.Cols {
		out.Cols[i] = data.NewColumnLen(c.Name, c.Kind, len(idx), c.Nulls != nil)
	}
	_, err := e.runMorsels(ectx, len(idx), func(_, _, lo, hi int) error {
		for i, c := range in.Cols {
			c.TakeInto(out.Cols[i], lo, idx[lo:hi])
		}
		return nil
	})
	if err != nil {
		// An aborted drain leaves holes in out; the serial gather is
		// always correct, and a cancelled query stops at the caller's
		// next context check anyway.
		return in.Take(idx)
	}
	return out
}
