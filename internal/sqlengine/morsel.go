package sqlengine

import (
	"context"
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

// defaultMorselSize is the morsel row count of an engine whose
// MorselSize is 0.
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

// morselSize returns the engine's morsel row count: MorselSize when
// set, defaultMorselSize otherwise.
func (e *Engine) morselSize() int {
	if e.MorselSize > 0 {
		return e.MorselSize
	}
	return defaultMorselSize
}

// morselSpan is one claimed input range.
type morselSpan struct{ lo, hi int }

// morselsFor fixes the split of n rows for this engine. An explicit
// MorselSize splits every input at that size, serial or not. Without
// one, the input splits at defaultMorselSize only when the pool can
// run the morsels; otherwise it is one batch (operator-at-a-time
// semantics: Parallelism 1 is the serial A/B baseline and keeps its
// single-crossing structure).
func (e *Engine) morselsFor(n int) []morselSpan {
	size := e.morselSize()
	if e.MorselSize <= 0 && (e.Workers() <= 1 || n < minParallelRows) {
		size = n
	}
	return morselPlan(n, size)
}

// rowSpans fixes the split of a projection's or filter's n input rows.
// Under ModeRow one that calls a UDF runs one row per morsel, so every
// call crosses the boundary for one tuple (SQLite's per-row C call,
// PostgreSQL's round trip per row); any other splits as morselsFor does.
func (e *Engine) rowSpans(n int, crosses bool) []morselSpan {
	if e.Mode == ModeRow && crosses {
		return morselPlan(n, 1)
	}
	return e.morselsFor(n)
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

// runMorsels drives fn over spans, the morsels of [0, n), with the
// engine's worker pool (see drive). fn receives (worker, morsel index, lo, hi)
// and must only touch worker- or morsel-local state. The returned worker
// count is 1 when the input ran serially (small input or Parallelism 1).
// Per-morsel counts and worker utilization are recorded on the query
// span (nil-safe) and the engine-wide metrics.
func (e *Engine) runMorsels(ectx *execCtx, spans []morselSpan, fn func(worker, m, lo, hi int) error) (int, error) {
	sp := ectx.span
	n := spans[len(spans)-1].hi
	wall := time.Now()
	workers, busy, err := e.drive(ectx.ctx, spans, n < minParallelRows, fn)
	elapsed := time.Since(wall).Nanoseconds()
	mMorsels.Add(int64(len(spans)))
	mMorselRows.Add(int64(n))
	ectx.led.AddMorsels(len(spans))
	sp.AddInt("morsels", int64(len(spans)))
	if workers > 1 {
		mParallelOps.Inc()
		sp.SetInt("workers", int64(workers))
		if elapsed > 0 {
			// Utilization in permille: busy worker-nanos over wall * workers.
			sp.SetInt("worker_util_pm", busy*1000/(elapsed*int64(workers)))
		}
	}
	return workers, err
}

// drive runs task(worker, m, lo, hi) for every span m: on the calling
// goroutine when serial is set or the pool has one worker, else on up to
// Workers goroutines that claim spans from a shared atomic counter. It
// returns the worker count and, when over 1, the busy worker-nanos.
// Every worker checks ctx before claiming a span, so a cancelled query
// stops within one span; and every task runs guarded, so one poisoned
// morsel fails its query instead of killing the pool (or the process).
func (e *Engine) drive(ctx context.Context, spans []morselSpan, serial bool, task func(worker, m, lo, hi int) error) (int, int64, error) {
	k := len(spans)
	workers := min(e.Workers(), k)
	if workers <= 1 || serial {
		for m := 0; m < k; m++ {
			if err := ctx.Err(); err != nil {
				return 1, 0, err
			}
			start := time.Now()
			if err := guarded(task, 0, m, spans[m]); err != nil {
				return 1, 0, err
			}
			mMorselNanos.Observe(float64(time.Since(start).Nanoseconds()))
		}
		// A deadline that expired while the last span ran still counts:
		// context semantics win over an answer the caller gave up on.
		return 1, 0, ctx.Err()
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
		busy  atomic.Int64 // worker-nanos
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= k {
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
				err := guarded(task, w, m, spans[m])
				d := time.Since(start).Nanoseconds()
				busy.Add(d)
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
	return workers, busy.Load(), first
}

// guarded runs task over span m of worker w: the chaos hook, then task,
// with any panic converted to the span's error.
func guarded(task func(worker, m, lo, hi int) error, w, m int, s morselSpan) (err error) {
	defer resilience.Recover(&err)
	if faultinject.Armed() {
		if ferr := faultinject.Fire(FaultMorsel); ferr != nil {
			return ferr
		}
	}
	return task(w, m, s.lo, s.hi)
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

// runPartitioned executes fn over row ranges of in — spans, morsels
// driven by the worker pool — and concatenates the partial outputs in
// input order. The contract matches the serial path exactly: fn sees
// contiguous slices of in (and the row each starts at) and outputs one
// chunk per slice.
func (e *Engine) runPartitioned(ectx *execCtx, in *data.Chunk, spans []morselSpan, fn func(lo int, part *data.Chunk) (*data.Chunk, error)) (*data.Chunk, error) {
	outs, err := partitioned(e, ectx, spans, func(_, _, lo, hi int) (*data.Chunk, error) { return fn(lo, in.Slice(lo, hi)) })
	if err != nil {
		return nil, err
	}
	return e.concat(ectx.span, outs[0].Schema(), outs), nil
}

// partitioned runs fn(worker, m, lo, hi) over spans, an input's morsels,
// and returns its results in input order. A serial single batch runs on
// the calling goroutine with no morsel accounting.
func partitioned[T any](e *Engine, ectx *execCtx, spans []morselSpan, fn func(w, m, lo, hi int) (T, error)) ([]T, error) {
	outs := make([]T, len(spans))
	if len(spans) == 1 && e.Workers() <= 1 {
		var err error
		outs[0], err = fn(0, 0, spans[0].lo, spans[0].hi)
		return outs, err
	}
	_, err := e.runMorsels(ectx, spans, func(w, m, lo, hi int) (err error) {
		outs[m], err = fn(w, m, lo, hi)
		return err
	})
	return outs, err
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

// take is one source of an operator's output: morsel m keeps the rows
// rows[m] of cols, in order. A row of -1 is NULL, and nulls says whether
// any row is.
type take struct {
	cols  []*data.Column
	rows  [][]int
	nulls bool
}

// rel is an operator's output: a chunk, or a filter's or a join's takes,
// side by side, which a parent reads through (morsel) or materializes.
type rel struct {
	ch    *data.Chunk
	takes []take
}

// numRows is the output's row count.
func (r rel) numRows() int {
	if r.takes == nil {
		return r.ch.NumRows()
	}
	spans := r.spans(nil)
	return spans[len(spans)-1].hi
}

// spans are a take's morsels as ranges of its output rows, or a chunk's
// rows split by split.
func (r rel) spans(split func(n int) []morselSpan) []morselSpan {
	if r.takes == nil {
		return split(r.ch.NumRows())
	}
	spans := make([]morselSpan, len(r.takes[0].rows))
	at := 0
	for m, rows := range r.takes[0].rows {
		spans[m], at = morselSpan{at, at + len(rows)}, at+len(rows)
	}
	return spans
}

// source returns output column c and, over takes, its take.
func (r rel) source(c int) (take, *data.Column) {
	if r.takes == nil {
		return take{}, r.ch.Cols[c]
	}
	t := 0
	for ; c >= len(r.takes[t].cols); t++ {
		c -= len(r.takes[t].cols)
	}
	return r.takes[t], r.takes[t].cols[c]
}

// cols are the output's columns, or over takes their sources.
func (r rel) cols() []*data.Column {
	if r.takes == nil {
		return r.ch.Cols
	}
	var cols []*data.Column
	for _, t := range r.takes {
		cols = append(cols, t.cols...)
	}
	return cols
}

// morsel returns rows [lo, hi), morsel m, of the output columns reads:
// views of a chunk's columns, or a take's rows gathered into scr, scratch
// that one worker reuses from morsel to morsel (valid until its next).
func (r rel) morsel(scr *[]data.Column, reads []int, m, lo, hi int) *data.Chunk {
	ch := &data.Chunk{Cols: make([]*data.Column, len(reads))}
	if len(*scr) < len(reads) {
		*scr = make([]data.Column, len(reads))
	}
	for i, c := range reads {
		t, src := r.source(c)
		if r.takes == nil {
			ch.Cols[i] = src.Slice(lo, hi)
			continue
		}
		if sc := &(*scr)[i]; sc.Len() < hi-lo || sc.Kind != src.Kind {
			*sc = *data.NewColumnLen(src.Name, src.Kind, hi-lo, src.Nulls != nil || t.nulls)
		}
		ch.Cols[i] = (*scr)[i].Slice(0, hi-lo)
		src.TakeInto(ch.Cols[i], 0, t.rows[m])
	}
	return ch
}

// materialize returns an operator's output as a chunk, gathering a
// take's columns: the one place an output is gathered.
func (e *Engine) materialize(ectx *execCtx, r rel) (*data.Chunk, error) {
	if r.ch != nil {
		return r.ch, nil
	}
	cols, err := e.gather(ectx, r.takes...)
	if err != nil {
		return nil, err
	}
	return &data.Chunk{Cols: cols}, nil
}

// gather materializes an operator's output once its morsels have chosen
// their rows: every output column is allocated once, at its final size,
// and each morsel gathers its rows into its own range of it (TakeInto),
// on the worker pool. The columns come in the takes' order and keep
// their sources' names; one has a null mask when its source has one or
// its take has NULL rows, so the output is identical at any parallelism.
func (e *Engine) gather(ectx *execCtx, takes ...take) ([]*data.Column, error) {
	spans := rel{takes: takes}.spans(nil) // each morsel's output rows
	n, out := spans[len(spans)-1].hi, []*data.Column(nil)
	for _, t := range takes {
		for _, c := range t.cols {
			out = append(out, data.NewColumnLen(c.Name, c.Kind, n, c.Nulls != nil || t.nulls))
		}
	}
	if len(spans) == 1 {
		gatherMorsel(out, takes, 0, 0) // one morsel: gather in place
		return out, nil
	}
	ts := append([]take(nil), takes...) // the pool's copy, so takes stays with the caller
	_, _, err := e.drive(ectx.ctx, spans, n < minParallelRows, func(_, m, lo, _ int) error {
		gatherMorsel(out, ts, m, lo)
		return nil
	})
	return out, err
}

// gatherMorsel gathers morsel m's rows of every take into out from row at.
func gatherMorsel(out []*data.Column, takes []take, m, at int) {
	for _, t := range takes {
		for i, c := range t.cols {
			c.TakeInto(out[i], at, t.rows[m])
		}
		out = out[len(t.cols):]
	}
}
