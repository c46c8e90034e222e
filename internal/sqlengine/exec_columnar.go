package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

// execColumnar is the executor of every profile, vectorized and
// operator-at-a-time: every operator finishes its output before the
// parent runs (MonetDB's model; an explicit MorselSize splits UDF
// batches but keeps the same operator boundaries). A filter's or join's
// output is row lists (rel), which an aggregate, a projection or a join's
// probe side reads through. Operators run morsel-parallel over the
// engine's worker pool (morsel.go); the blocking ones keep per-worker
// partial state and merge at the barrier. Under ModeRow a projection,
// filter or expand that calls a UDF runs one-row morsels (rowSpans), and
// a LIMIT stops the row-wise chain below it early (limitChunk).
func (e *Engine) execColumnar(p *Plan, ectx *execCtx) (rel, error) {
	switch p.Op {
	case OpProject, OpFilter, OpExpand:
		if len(p.Children) == 0 {
			// FROM-less SELECT: one dummy row. The planner's placeholder
			// node has no expressions — keep the dummy row so a parent
			// projection evaluates once.
			if len(p.Exprs) == 0 {
				return rel{ch: oneRowChunk()}, nil
			}
			return e.rowWise(p, rel{ch: oneRowChunk()}, ectx)
		}
		// Under ModeRow a projection's UDF runs one-row morsels, not a take's.
		in, err := e.execRel(p.Children[0], ectx, p.Op == OpProject && (e.Mode != ModeRow || len(p.UDFCalls()) == 0))
		if err != nil {
			return rel{}, err
		}
		return e.rowWise(p, in, ectx)
	case OpJoin:
		return e.joinChunk(p, ectx)
	case OpAggregate, OpFusedAgg:
		in, err := e.execRel(p.Children[0], ectx, !sourceDriven(p))
		if err != nil {
			return rel{}, err
		}
		ch, err := e.aggregateChunk(p, in, ectx)
		return rel{ch: ch}, err
	}
	ch, err := e.execChunk(p, ectx)
	return rel{ch: ch}, err
}

// execChunk executes the operators whose output is always a chunk.
func (e *Engine) execChunk(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	var in *data.Chunk // the one child's output, for the operators that have one here
	if p.Op == OpSort || p.Op == OpTableFunc || p.Op == OpFused {
		var err error
		if in, err = e.execPlan(p.Children[0], ectx); err != nil {
			return nil, err
		}
	}
	switch p.Op {
	case OpScan:
		t, ok := e.Catalog.Table(p.Table)
		if !ok {
			if ch, ok := ectx.ctes[strings.ToLower(p.Table)]; ok {
				return p.emit(ch), nil
			}
			return nil, errNoSuchTable(p.Table)
		}
		return p.emit(t.Chunk()), nil
	case OpCTERef:
		ch, ok := ectx.ctes[strings.ToLower(p.Table)]
		if !ok {
			return nil, fmt.Errorf("sql: CTE %s not materialized", p.Table)
		}
		return p.emit(ch), nil
	case OpSort:
		return e.sortChunk(p, in, ectx)
	case OpLimit:
		return e.limitChunk(p, ectx)
	case OpUnion:
		l, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		r, err := e.execPlan(p.Children[1], ectx)
		if err != nil {
			return nil, err
		}
		return data.Concat(p.Schema, []*data.Chunk{l, r}), nil
	case OpTableFunc:
		if p.UDF.Fused {
			// A fused wrapper re-submitted as a table function (rewrite
			// path 1) uses the vector calling convention.
			return e.runFusedAsTable(p, in, ectx)
		}
		extra := make([]data.Value, len(p.TFArgs))
		for i, a := range p.TFArgs {
			v, err := e.evalConst(a)
			if err != nil {
				return nil, err
			}
			extra[i] = v
		}
		out, err := e.Invoker.CallTable(ectx.clone(p.UDF), in, extra)
		if err != nil {
			return nil, err
		}
		for i, c := range out.Cols {
			if i < len(p.Schema) {
				c.Name = p.Schema[i].Name
			}
		}
		return out, nil
	case OpFused:
		return e.runFused(p, in, ectx)
	}
	return nil, fmt.Errorf("sql: columnar executor: unsupported op %s", p.Op)
}

// rowWise applies a row-wise operator — a projection, filter or expand —
// to its input (a chunk, or a projection's take).
func (e *Engine) rowWise(p *Plan, in rel, ectx *execCtx) (rel, error) {
	switch p.Op {
	case OpProject:
		return e.projectChunk(p, in, ectx)
	case OpFilter:
		return e.filterChunk(p.Exprs[0], in.ch, ectx)
	}
	ch, err := e.expandChunk(p, in.ch, ectx)
	return rel{ch: ch}, err
}

// limitChunk takes rows [OFFSET, OFFSET+LIMIT) of its child. Above a
// chain of row-wise operators it stops the chain early: the chain's
// source runs in full, the chain first on its first OFFSET+LIMIT rows,
// then on windows that double each time, and only while rows are
// missing. A projection's UDF thus runs on exactly the rows the LIMIT
// takes. The span tree still mirrors the plan: one span per chain
// operator, nested as the plan is, with the source under the lowest, and
// each window's run of an operator adds its rows to the operator's span.
func (e *Engine) limitChunk(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	var chain []*Plan // top down
	src := p.Children[0]
	for (src.Op == OpProject || src.Op == OpFilter || src.Op == OpExpand) && len(src.Children) > 0 {
		chain = append(chain, src)
		src = src.Children[0]
	}
	need := p.OffsetN + p.LimitN
	if need < p.OffsetN { // overflow: no bound
		need = math.MaxInt64
	}
	top := ectx.span
	spans := make([]*obs.Span, len(chain))
	for i, op := range chain {
		spans[i] = ectx.span.Child("op:" + op.Op.String())
		annotateOpSpan(spans[i], op)
		ectx.span = spans[i]
	}
	defer func() {
		for i := len(spans) - 1; i >= 0; i-- {
			spans[i].End()
		}
		ectx.span = top
	}()
	in, err := e.execPlan(src, ectx)
	if err != nil {
		return nil, err
	}
	if len(chain) > 0 {
		var parts []*data.Chunk
		got, n := 0, in.NumRows()
		for at, w := 0, int(min(need, int64(n))); ; at, w = at+w, 2*w {
			part := in.Slice(at, min(at+w, n))
			for i := len(chain) - 1; i >= 0; i-- {
				op, win := chain[i], part
				ectx.span = spans[i]
				out, err := e.account(op, ectx, false, func() (rel, error) { return e.rowWise(op, rel{ch: win}, ectx) })
				if err != nil {
					return nil, err
				}
				part = out.ch
				spans[i].AddInt("rows_out", int64(part.NumRows()))
			}
			parts = append(parts, part)
			if got += part.NumRows(); int64(got) >= need || at+w >= n {
				break
			}
		}
		ectx.span = top
		in = e.concat(top, parts[0].Schema(), parts)
	}
	n := int64(in.NumRows())
	return in.Slice(int(min(p.OffsetN, n)), int(min(need, n))), nil
}

func oneRowChunk() *data.Chunk {
	c := data.NewColumn("__dummy", data.KindInt)
	c.AppendInt(0)
	return data.NewChunk(c)
}

// projectChunk evaluates the projection expressions over its input. A
// column passed through is the input's own, or a take's gathered once
// into the output. The computed ones compile into one program over the
// columns they read, so a subtree repeated between output columns (or
// within one, as relational inlining produces) evaluates once per morsel.
func (e *Engine) projectChunk(p *Plan, in rel, ectx *execCtx) (rel, error) {
	src, names, want := in.cols(), p.Schema.Names(), make([]data.Kind, len(p.Schema))
	out := make([]*data.Column, len(p.Exprs))
	var pass, comp []int // output columns gathered from a take; computed output columns
	var passed rel       // the take of the columns in pass
	for i, x := range p.Exprs {
		want[i] = p.Schema[i].Kind
		cr, ok := x.(*ColRef)
		if !ok || want[i] != data.KindNull && src[cr.Index].Kind != want[i] { // compiled, it would not be the column itself
			comp = append(comp, i)
			continue
		}
		t, c := in.source(cr.Index)
		cp := *c
		cp.Name = names[i]
		if out[i] = &cp; in.takes == nil {
			mZeroCopyCols.Inc()
		} else {
			pass, passed.takes = append(pass, i), append(passed.takes, take{cols: []*data.Column{&cp}, rows: t.rows, nulls: t.nulls})
		}
	}
	if pass != nil {
		ch, err := e.materialize(ectx, passed)
		if err != nil {
			return rel{}, err
		}
		for k, i := range pass {
			out[i] = ch.Cols[k]
		}
	}
	if len(comp) == 0 {
		return rel{ch: data.NewChunk(out...)}, nil
	}
	exprs, reads := narrow(choose(p.Exprs, comp))
	prog, err := e.compile(data.NewChunk(choose(src, reads)...), exprs, choose(want, comp))
	if err != nil {
		return rel{}, err
	}
	spans := in.spans(func(n int) []morselSpan { return e.rowSpans(n, prog.crosses()) })
	parts, err := partitioned(e, ectx, spans, func(_, m, lo, hi int) (*data.Chunk, error) {
		var scr []data.Column // the morsel's own: a result may be a column it reads, or share its storage
		cols, err := prog.run(in.morsel(&scr, reads, m, lo, hi))
		for k, c := range cols {
			cp := *c
			cp.Name = names[comp[k]]
			cols[k] = &cp
		}
		return data.NewChunk(cols...), err
	})
	if err != nil {
		return rel{}, err
	}
	for k, c := range e.concat(ectx.span, parts[0].Schema(), parts).Cols {
		out[comp[k]] = c
	}
	return rel{ch: data.NewChunk(out...)}, nil
}

// narrow rewrites xs' column references onto the columns they read, in
// order of first reference, and returns those (column 0 if none is read).
func narrow(xs []SQLExpr) ([]SQLExpr, []int) {
	var reads []int
	slotOf := map[int]int{}
	out := make([]SQLExpr, len(xs))
	for i, x := range xs {
		out[i] = RewriteExpr(x, func(x SQLExpr) SQLExpr {
			if cr, ok := x.(*ColRef); ok {
				s, seen := slotOf[cr.Index]
				if !seen {
					s, slotOf[cr.Index] = len(reads), len(reads)
					reads = append(reads, cr.Index)
				}
				cr.Index = s
			}
			return x
		})
	}
	if len(reads) == 0 {
		reads = []int{0}
	}
	return out, reads
}

// filterChunk keeps rows where the predicate holds. Each morsel lists
// its kept rows from the predicate's column, which it borrows, so the
// column is recycled from morsel to morsel; the lists, in the engine's
// usual morsels even after one-row ModeRow ones, are the output's take.
func (e *Engine) filterChunk(pred SQLExpr, in *data.Chunk, ectx *execCtx) (rel, error) {
	prog, err := e.compile(in, []SQLExpr{pred}, []data.Kind{data.KindBool})
	if err != nil {
		return rel{}, err
	}
	spans := e.rowSpans(in.NumRows(), prog.crosses())
	keep, err := partitioned(e, ectx, spans, func(_, _, lo, hi int) (keep []int, err error) {
		err = prog.use(in.Slice(lo, hi), func(cols []*data.Column) error { keep = trueRows(cols[0], lo); return nil })
		return keep, err
	})
	if err != nil {
		return rel{}, err
	}
	if usual := e.morselsFor(in.NumRows()); len(usual) < len(spans) {
		rows := make([][]int, len(usual))
		for m, s := range usual {
			rows[m] = slices.Concat(keep[s.lo:s.hi]...)
		}
		keep = rows
	}
	return rel{takes: []take{{cols: in.Cols, rows: keep}}}, nil
}

// trueRows lists the rows where a predicate's bool column holds (NULL
// does not), numbered from lo, in a list of exactly their number.
func trueRows(keep *data.Column, lo int) []int {
	n := 0
	for i, k := range keep.Bools {
		if k && !keep.IsNull(i) {
			n++
		}
	}
	idx := make([]int, 0, n)
	for i, k := range keep.Bools {
		if k && !keep.IsNull(i) {
			idx = append(idx, lo+i)
		}
	}
	return idx
}

// expandChunk calls an expand UDF on every input row: in one crossing
// over the whole input, or under ModeRow in one per row. A call's output
// columns come back from the transport as they are, and the kept columns
// before them are replicated by its parent map, once per row the call
// yielded. An empty input makes no call.
func (e *Engine) expandChunk(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	u := ectx.clone(p.UDF)
	spans := []morselSpan{{0, in.NumRows()}}
	if e.Mode == ModeRow {
		spans = morselPlan(in.NumRows(), 1)
	}
	return e.runPartitioned(ectx, in, spans, func(_ int, part *data.Chunk) (*data.Chunk, error) {
		if part.NumRows() == 0 {
			return data.EmptyChunk(p.Schema), nil
		}
		argCols := make([]*data.Column, len(p.TFArgs))
		for i, a := range p.TFArgs {
			cr, ok := a.(*ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: expand arg must be a column ref")
			}
			argCols[i] = part.Cols[cr.Index]
		}
		cu := u.WorkerClone()
		defer u.AbsorbWorker(cu)
		res, parent, err := e.Invoker.CallExpand(cu, argCols, part.NumRows())
		if err != nil {
			return nil, err
		}
		out := (&data.Chunk{Cols: part.Cols[:p.ExpandKeep()]}).Take(parent)
		out.Cols = append(out.Cols, res.Cols...)
		for i, c := range out.Cols {
			c.Name = p.Schema[i].Name
		}
		return out, nil
	})
}

// joinChunk executes a join one morsel of left rows at a time. A
// morsel's candidate pairs — the build table's hits for an equi join,
// every right row for a nested loop — pass through the residual's
// compiled filter, and a LEFT join then gives each left row left without
// a pair one NULL-extended pair. An equi join's build is the engine's one
// hash table (hashtable.go) over the right rows' typed key columns, with
// each key's rows chained in ascending order; its key equality is the
// engine's =, so a NULL or NaN key matches nothing and an int key meets a
// float one as a float. Over a filter, a morsel probes the rows of the
// filter's list, so its pairs name rows of the filter's input. The output
// is every morsel's (left row, right row) lists, takes of the columns the
// parent reads. The build table is written before the pool starts and
// only read afterwards, so probing needs no locks; the morsels keep
// input order, so the output is identical at any parallelism.
func (e *Engine) joinChunk(p *Plan, ectx *execCtx) (rel, error) {
	lr, err := e.execRel(p.Children[0], ectx, p.Children[0].Op == OpFilter)
	if err != nil {
		return rel{}, err
	}
	r, err := e.execPlan(p.Children[1], ectx)
	if err != nil {
		return rel{}, err
	}
	lcols := lr.cols()
	nl := len(p.Children[0].Schema)
	leftKeys, rightKeys, residual := splitEquiJoin(p.JoinOn, nl)
	nR := r.NumRows()
	// The build is serial: the build side is the smaller input. A NULL or
	// NaN key, which = makes equal to nothing, is neither built nor probed.
	var (
		lk, rk     []*data.Column        // the key columns
		build      hashTable             // a right key's hash -> its id
		head, next []int                 // key id -> its first right row; right row -> the next of its key, or -1
		kc         = slices.Clone(lcols) // the left columns, keys as = compares them
	)
	if len(leftKeys) > 0 {
		lk, rk = make([]*data.Column, len(leftKeys)), make([]*data.Column, len(leftKeys))
		for k := range lk {
			lk[k], rk[k] = joinKeys(lcols[leftKeys[k]], r.Cols[rightKeys[k]])
			kc[leftKeys[k]] = lk[k]
		}
		hs := make([]uint64, nR)
		hashKeys(hs, rk, 0)
		build, next = newHashTable(nR), make([]int, nR)
		for j := nR - 1; j >= 0; j-- { // descending, so each chain ascends
			if nullOrNaN(rk, j) {
				continue
			}
			id := build.group(hs[j], func(g int) bool { return keysEqual(rk, head[g], rk, j) })
			if id == len(head) { // a new key
				head = append(head, -1)
			}
			next[j], head[id] = head[id], j
		}
	}
	filter, err := e.joinFilter(lcols, r, residual)
	if err != nil {
		return rel{}, err
	}
	// The parent's columns, under its names (KeepCols ascend, so the left
	// side's come first). A side keeps its row lists when the parent, the
	// residual or a LEFT join reads them; one always does.
	keep := p.emit(data.NewChunk(append(lcols[:nl:nl], r.Cols...)...)).Cols
	for c, col := range keep {
		cp := *col
		cp.Name = p.Schema[c].Name
		keep[c] = &cp
	}
	split := nl
	if p.KeepCols != nil {
		split = sort.SearchInts(p.KeepCols, nl)
	}
	needL := split > 0 || filter != nil || p.JoinKind == "LEFT"
	needR := split < len(keep) || filter != nil || p.JoinKind == "LEFT" || !needL
	// Probe row x of morsel m is left row lo+x, or over a take probe[m][x]
	// (its keys then gathered into the worker's scratch).
	spans, probe := lr.spans(e.morselsFor), [][]int(nil)
	if lr.takes != nil {
		probe = lr.takes[0].rows
	}
	batch := e.morselSize()
	lrows, rrows := make([][]int, len(spans)), make([][]int, len(spans))
	scr := make([][]data.Column, e.Workers()) // per worker: a take's probe keys
	var padded atomic.Bool                    // some left row has no pair: the right columns get a null mask
	_, err = e.runMorsels(ectx, spans, func(w, m, lo, hi int) error {
		keys, kb := lk, lo // probe row x's key is row kb+x of keys
		if probe != nil {
			keys, kb = rel{takes: []take{{cols: kc, rows: probe}}}.morsel(&scr[w], leftKeys, m, lo, hi).Cols, 0
		}
		// Sized for one pair per left row, a key join's usual yield.
		var li, ri []int
		if needL {
			li = make([]int, 0, hi-lo)
		}
		if needR {
			ri = make([]int, 0, hi-lo)
		}
		pair := func(i, j int) {
			if needL {
				li = append(li, i)
			}
			if needR {
				ri = append(ri, j)
			}
		}
		var hbuf [hashBlock]uint64
		hs, hlo := hbuf[:0], kb // the key hashes of key rows hlo, hlo+1, …
		done := 0               // the pairs before done passed the residual
		for x := 0; x < hi-lo; x++ {
			i, kr := lo+x, kb+x
			if probe != nil {
				i = probe[m][x]
			}
			switch {
			case lk == nil:
				for j := 0; j < nR; j++ {
					pair(i, j)
				}
			case !nullOrNaN(keys, kr):
				if kr-hlo >= len(hs) { // hash the next block of rows
					hs, hlo = hbuf[:min(hi-lo-x, hashBlock)], kr
					hashKeys(hs, keys, kr)
				}
				if id := build.find(hs[kr-hlo], func(g int) bool { return keysEqual(rk, head[g], keys, kr) }); id >= 0 {
					for j := head[id]; j >= 0; j = next[j] {
						pair(i, j)
					}
				}
			}
			// The residual runs over batches of candidates, so a nested
			// loop holds at most one batch and one left row's pairs beyond
			// its output.
			if filter != nil && (len(li)-done >= batch || x == hi-lo-1) {
				kept, err := filter(w, li[done:], ri[done:])
				if err != nil {
					return err
				}
				li, ri = li[:done+kept], ri[:done+kept]
				done = len(li)
			}
		}
		if p.JoinKind == "LEFT" {
			var pad bool
			if li, ri, pad = padLeft(li, ri, lo, hi, probe, m); pad {
				padded.Store(true)
			}
		}
		lrows[m], rrows[m] = li, ri
		return nil
	})
	if err != nil {
		return rel{}, err
	}
	var out rel
	if needL {
		out.takes = append(out.takes, take{cols: keep[:split], rows: lrows})
	}
	if needR {
		out.takes = append(out.takes, take{cols: keep[split:], rows: rrows, nulls: padded.Load()})
	}
	return out, nil
}

// joinFilter compiles a join's residual predicate once, over just the
// columns it reads. The filter it returns gathers those columns for a
// list of candidate pairs into worker w's scratch, runs the program over
// them and compacts the pairs in place to the ones the predicate holds
// for, returning how many remain. A nil residual gives a nil filter.
func (e *Engine) joinFilter(l []*data.Column, r *data.Chunk, residual SQLExpr) (func(w int, li, ri []int) (int, error), error) {
	if residual == nil {
		return nil, nil
	}
	pred, reads := narrow([]SQLExpr{residual})
	prog, err := e.compile(data.NewChunk(choose(append(l[:len(l):len(l)], r.Cols...), reads)...), pred, []data.Kind{data.KindBool})
	if err != nil {
		return nil, err
	}
	scr := make([][]data.Column, e.Workers())
	return func(w int, li, ri []int) (int, error) {
		cand := rel{takes: []take{{cols: l, rows: [][]int{li}}, {cols: r.Cols, rows: [][]int{ri}}}}
		var keep []int
		if err := prog.use(cand.morsel(&scr[w], reads, 0, 0, len(li)), func(cols []*data.Column) error { keep = trueRows(cols[0], 0); return nil }); err != nil {
			return 0, err
		}
		for n, k := range keep {
			li[n], ri[n] = li[k], ri[k]
		}
		return len(keep), nil
	}, nil
}

// padLeft gives every left row of a morsel (lo … hi-1, or probe[m]) that
// no pair names the pair (i, -1), in order: a LEFT join's NULL-extended
// rows. padded reports whether any row got one.
func padLeft(li, ri []int, lo, hi int, probe [][]int, m int) (_, _ []int, padded bool) {
	pl := make([]int, 0, len(li)+hi-lo)
	pr := make([]int, 0, len(li)+hi-lo)
	k := 0
	for x := lo; x < hi; x++ {
		i := x
		if probe != nil {
			i = probe[m][x-lo]
		}
		if k == len(li) || li[k] != i {
			pl, pr = append(pl, i), append(pr, -1)
			continue
		}
		for ; k < len(li) && li[k] == i; k++ {
			pl, pr = append(pl, i), append(pr, ri[k])
		}
	}
	return pl, pr, len(pl) > len(li)
}

// splitEquiJoin extracts equi-key pairs (left col = right col) from a
// join predicate; residual is the conjunction of the other conjuncts,
// nil when there are none.
func splitEquiJoin(on SQLExpr, nl int) (leftKeys, rightKeys []int, residual SQLExpr) {
	if on == nil {
		return nil, nil, nil
	}
	var rest []SQLExpr
	for _, c := range conjuncts(on) {
		b, ok := c.(*BinExpr)
		if ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				switch {
				case lc.Index < nl && rc.Index >= nl:
					leftKeys = append(leftKeys, lc.Index)
					rightKeys = append(rightKeys, rc.Index-nl)
					continue
				case rc.Index < nl && lc.Index >= nl:
					leftKeys = append(leftKeys, rc.Index)
					rightKeys = append(rightKeys, lc.Index-nl)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	return leftKeys, rightKeys, andAll(rest)
}

// aggPartial is one worker's partial state for a native aggregate,
// indexed by morsel-local group id. The merge rules at the barrier:
// count adds; sum/avg add sums and non-null counts (avg finalizes from
// the merged ratio, never from partial averages); min/max compare the
// partial winners; median concatenates the gathered inputs (blocking —
// it has no decomposition and must see every value). A SUM or AVG of a
// non-float argument sums exactly in isums, and sums stays nil, so an
// AVG divides one exact sum, whatever the morsels' split.
type aggPartial struct {
	counts []int64
	sums   []float64
	isums  []data.IntSum
	scount []int64
	best   []data.Value
	vals   [][]float64
}

// foldNative folds one native aggregate over a morsel into a new
// partial, using morsel-local group ids (one per row). arg is the
// aggregate's evaluated argument column, nil for COUNT(*).
func foldNative(spec AggSpec, arg *data.Column, gids []int, g int) (*aggPartial, error) {
	k := data.KindNull
	if arg != nil {
		k = arg.Kind
	}
	pt := newPartial(spec, g, k)
	switch spec.Name {
	case "count":
		for i, gid := range gids {
			if arg == nil || !arg.IsNull(i) {
				pt.counts[gid]++
			}
		}
	case "sum", "avg":
		switch {
		case arg.Kind == data.KindInt && pt.isums != nil:
			for i, gid := range gids {
				if arg.Nulls == nil || !arg.Nulls[i] {
					pt.isums[gid].Add(arg.Ints[i])
					pt.scount[gid]++
				}
			}
		case arg.Kind == data.KindInt:
			sumInto(pt, arg.Ints, arg.Nulls, gids)
		case arg.Kind == data.KindFloat:
			sumInto(pt, arg.Floats, arg.Nulls, gids)
		default:
			for i, gid := range gids {
				v := arg.Get(i)
				if f, ok := v.AsFloat(); ok && pt.isums != nil {
					pt.isums[gid].Add(v.I)
					pt.scount[gid]++
				} else if ok {
					pt.sums[gid] += f
					pt.scount[gid]++
				}
			}
		}
	case "min", "max":
		max := spec.Name == "max"
		switch arg.Kind {
		case data.KindInt:
			foldBestOf(pt.best, arg.Ints, arg.Nulls, gids, max, data.Int)
		case data.KindFloat:
			foldBestOf(pt.best, arg.Floats, arg.Nulls, gids, max, data.Float)
		case data.KindString:
			foldBestOf(pt.best, arg.Strs, arg.Nulls, gids, max, data.Str)
		default:
			for i, gid := range gids {
				if !arg.IsNull(i) {
					foldBest(spec.Name, pt.best, gid, arg.Get(i))
				}
			}
		}
	case "median":
		for i, gid := range gids {
			if f, ok := arg.Get(i).AsFloat(); ok {
				pt.vals[gid] = append(pt.vals[gid], f)
			}
		}
	default:
		return nil, fmt.Errorf("sql: unknown aggregate %s", spec.Name)
	}
	return pt, nil
}

// sumInto adds the non-NULL rows of a numeric column into their groups.
func sumInto[T int64 | float64](pt *aggPartial, vals []T, nulls []bool, gids []int) {
	for i, gid := range gids {
		if nulls == nil || !nulls[i] {
			pt.sums[gid] += float64(vals[i])
			pt.scount[gid]++
		}
	}
}

// foldBest applies the min/max rule: the first non-null value takes the
// seat, and a later one replaces it when it outranks it (data.Outranks),
// a rule under which the merge at the barrier gives the serial answer.
func foldBest(name string, best []data.Value, gid int, v data.Value) {
	if best[gid].IsNull() || data.Outranks(v, best[gid], name == "max") {
		best[gid] = v
	}
}

// foldBestOf is foldBest over a typed argument column: each group's
// winner is folded unboxed — a NaN seat yields to any other value, a
// NaN never takes a seat held, and a tie keeps the seat — and only the
// winners are boxed. Its rule must stay data.Outranks', which merges
// the morsels' winners; TestTypedMinMaxMatchesOutranks checks the two
// agree.
func foldBestOf[T int64 | float64 | string](best []data.Value, vals []T, nulls []bool, gids []int, max bool, box func(T) data.Value) {
	cur, seated := make([]T, len(best)), make([]bool, len(best))
	for i, gid := range gids {
		if nulls != nil && nulls[i] {
			continue
		}
		switch v, c := vals[i], cur[gid]; {
		case !seated[gid]:
			seated[gid] = true
		case c != c: // a NaN seat: v takes it unless v is a NaN too
			if v != v {
				continue
			}
		case max && v > c, !max && v < c:
		default:
			continue
		}
		cur[gid] = vals[i]
	}
	for gid, ok := range seated {
		if ok {
			best[gid] = box(cur[gid])
		}
	}
}

// mergeNative folds src (one morsel's partial, local group ids) into
// dst (global group ids) through the local→global id map.
func mergeNative(dst, src *aggPartial, spec AggSpec, l2g []int) {
	switch spec.Name {
	case "count":
		for lg, c := range src.counts {
			dst.counts[l2g[lg]] += c
		}
	case "sum", "avg":
		for lg, c := range src.scount {
			if src.isums != nil {
				dst.isums[l2g[lg]].Merge(src.isums[lg])
			} else {
				dst.sums[l2g[lg]] += src.sums[lg]
			}
			dst.scount[l2g[lg]] += c
		}
	case "min", "max":
		for lg, v := range src.best {
			if v.IsNull() {
				continue
			}
			foldBest(spec.Name, dst.best, l2g[lg], v)
		}
	case "median":
		for lg, vs := range src.vals {
			dst.vals[l2g[lg]] = append(dst.vals[l2g[lg]], vs...)
		}
	}
}

// finalizeNative turns a merged partial into the per-group output
// values. An exact sum outside int64 is an error.
func finalizeNative(spec AggSpec, pt *aggPartial, g int) ([]data.Value, error) {
	out := make([]data.Value, g)
	switch spec.Name {
	case "count":
		for i := 0; i < g; i++ {
			out[i] = data.Int(pt.counts[i])
		}
	case "sum", "avg":
		for i := 0; i < g; i++ {
			switch {
			case pt.scount[i] == 0:
				out[i] = data.Null
			case spec.Name == "avg" && pt.isums != nil:
				out[i] = data.Float(pt.isums[i].Float() / float64(pt.scount[i]))
			case spec.Name == "avg":
				out[i] = data.Float(pt.sums[i] / float64(pt.scount[i]))
			case pt.isums != nil:
				v, err := pt.isums[i].Int()
				if err != nil {
					return nil, fmt.Errorf("SUM: %w", err)
				}
				out[i] = data.Int(v)
			default:
				out[i] = data.Float(pt.sums[i])
			}
		}
	case "min", "max":
		copy(out, pt.best)
	case "median":
		for i, vals := range pt.vals {
			if len(vals) == 0 {
				out[i] = data.Null
				continue
			}
			sort.Float64s(vals)
			m := len(vals) / 2
			if len(vals)%2 == 1 {
				out[i] = data.Float(vals[m])
			} else {
				out[i] = data.Float((vals[m-1] + vals[m]) / 2)
			}
		}
	}
	return out, nil
}

// newPartial allocates the partial state of a spec over g groups and
// an argument of kind k: a morsel's, or the merged one.
func newPartial(spec AggSpec, g int, k data.Kind) *aggPartial {
	pt := &aggPartial{}
	switch spec.Name {
	case "count":
		pt.counts = make([]int64, g)
	case "sum", "avg":
		pt.scount = make([]int64, g)
		if k != data.KindFloat {
			pt.isums = make([]data.IntSum, g)
		} else {
			pt.sums = make([]float64, g)
		}
	case "min", "max":
		pt.best = make([]data.Value, g)
	case "median":
		pt.vals = make([][]float64, g)
	}
	return pt
}

// aggregateChunk groups the input and folds native and UDF aggregates in
// one morsel-parallel loop, which borrows each morsel's key and argument
// columns and keeps only group state. Each worker refills one hash table
// (hashtable.go) per morsel: the morsel's keys are hashed column-wise,
// and a row joins the group whose first row holds an equal key, so no key
// is encoded and no group allocates. A morsel keeps each group's first
// row and hash, and native partials over its local group ids, which go
// into a buffer per worker; MIN and MAX of an int, float or string fold
// unboxed. It is the engine's one grouping: a DISTINCT, and a UNION's
// dedup, is an aggregate keyed on every column with no aggregates. At the
// barrier the morsels' groups merge, morsels in order, into one table
// keyed by the hashes they kept, which numbers the global groups in
// first-occurrence order, the serial scan's (a lone morsel's groups are
// the global ones). Then the partials merge through the local→global id
// maps, and the key columns gather typed. A UDF aggregate, which may not
// be decomposable, runs once over every morsel's group ids and computed
// arguments, joined in morsel order.
func (e *Engine) aggregateChunk(p *Plan, in rel, ectx *execCtx) (*data.Chunk, error) {
	n, through := in.numRows(), in.takes != nil
	spans := in.spans(func(n int) []morselSpan { return e.spansFor(p, n) })
	nk := len(p.GroupBy)

	type morselGroups struct {
		keyCols  []*data.Column // the group-by keys' values
		firstRow []int          // local group id -> its first row in keyCols
		hashes   []uint64       // local group id -> its key's hash
		parts    []*aggPartial  // per agg spec; nil for UDF aggs
	}
	morsels := make([]morselGroups, len(spans))

	// The group-by keys, then each aggregate's arguments from argAt[ai]
	// on. A UDF aggregate's computed argument materializes at the
	// declared parameter kind.
	exprs := append([]SQLExpr(nil), p.GroupBy...)
	want := make([]data.Kind, len(exprs))
	argAt := make([]int, len(p.Aggs))
	var udfAt []int // the expressions that are UDF aggregates' computed arguments
	for ai, spec := range p.Aggs {
		argAt[ai] = len(exprs)
		for i, a := range spec.Args {
			kind := data.KindNull
			_, isCol := a.(*ColRef)
			if spec.UDF != nil && (!isCol || p.Op == OpFusedAgg) {
				kind = data.KindString
				if i < len(spec.UDF.InKinds) {
					kind = spec.UDF.InKinds[i]
				}
			}
			if spec.UDF != nil && (!isCol || p.Op == OpFusedAgg || through) {
				udfAt = append(udfAt, len(exprs))
			}
			exprs, want = append(exprs, a), append(want, kind)
		}
	}
	// The columns come from the node's compiled program; from the input
	// columns themselves when every expression is one (a DISTINCT, or
	// GROUP BY k with SUM(v)); or, for a fused aggregate, from its wrapper:
	// one crossing per morsel, whose rows are the ones its trace yields
	// (fewer after a filter, more after an expand). A morsel reads the
	// input columns in reads (rel.morsel), or a chunk's in place (inCols).
	var (
		prog   *exprProg
		kinds  []data.Kind // each column's kind
		wrap   *ffi.UDF
		reads  []int          // the input columns a morsel reads
		inCols []*data.Column // each expression's input column, read in place
		cols   = in.cols()
		err    error
	)
	switch {
	case p.Op == OpFusedAgg:
		if reads, err = fusedReads(p, len(cols)); err != nil {
			return nil, err
		}
		wrap = ectx.clone(p.UDF)
		kinds = wrap.OutKinds
	case !slices.ContainsFunc(exprs, func(x SQLExpr) bool { _, ok := x.(*ColRef); return !ok }):
		kinds = make([]data.Kind, len(exprs))
		for i, x := range exprs {
			reads = append(reads, x.(*ColRef).Index)
			kinds[i] = cols[reads[i]].Kind
		}
		if !through {
			inCols = choose(cols, reads)
		}
	default:
		var xs []SQLExpr
		xs, reads = narrow(exprs)
		if prog, err = e.compile(data.NewChunk(choose(cols, reads)...), xs, want); err != nil {
			return nil, err
		}
		kinds = make([]data.Kind, len(exprs))
		for i := range kinds {
			kinds[i] = prog.kinds[prog.roots[i]]
		}
	}
	// With many morsels, a morsel keeps only its groups' first rows of
	// the key columns, unless it reads them in place: scratch is recycled,
	// and a wrapper's fresh columns would hold every row.
	many := len(spans) > 1
	copyKeys := many && inCols == nil
	// A UDF aggregate's rows. The program's morsels have their input's
	// rows, so they write at the morsel's offset of one full-length id
	// vector and argument column; a wrapper's morsel counts are known only
	// after each crossing, so it keeps its own, joined at the barrier.
	var (
		udfAgg    = slices.ContainsFunc(p.Aggs, func(a AggSpec) bool { return a.UDF != nil })
		groupIDs  []int          // row -> group id
		udfArgs   []*data.Column // the computed arguments, by expression
		wrapGids  [][]int        // per fused morsel: row -> local group id
		wrapUArgs []*data.Chunk  // per fused morsel: its udfAt columns
	)
	if udfAgg {
		udfArgs = make([]*data.Column, len(exprs))
		if wrap != nil {
			wrapGids, wrapUArgs = make([][]int, len(spans)), make([]*data.Chunk, len(spans))
		} else if groupIDs = make([]int, n); many {
			for _, at := range udfAt {
				udfArgs[at] = data.NewColumnLen("", kinds[at], n, true)
			}
		}
	}
	// Per worker, reused by each morsel: its row -> local group id, its
	// table, its groups' first rows, and the columns it gathers.
	type workerBufs struct {
		gids, first []int
		table       hashTable
		scr         []data.Column
	}
	bufs := make([]workerBufs, min(e.Workers(), len(spans)))

	_, err = e.runMorsels(ectx, spans, func(w, m, lo, hi int) error {
		var wrapOut []*data.Column
		rows := hi - lo
		if wrap != nil {
			var err error
			if wrapOut, rows, err = fusedMorsel(wrap, len(spans) == 1, in.morsel(&bufs[w].scr, reads, m, lo, hi).Cols, rows, wrap.OutNames, wrap.OutKinds); err != nil {
				return err
			}
		}
		// fold groups the morsel's rows: row i is row base+i of cols.
		fold := func(cols []*data.Column, base int) error {
			mg := &morsels[m]
			mg.keyCols = cols[:nk]
			wb := &bufs[w]
			wb.gids = grow(wb.gids, rows)
			gids := wb.gids
			if nk > 0 {
				tbl := &wb.table
				if tbl.slots == nil {
					*tbl = newHashTable(min(rows, 4)) // grown to the groups a morsel has
				}
				clear(tbl.slots)
				tbl.hashes = tbl.hashes[:0]
				keys, first := mg.keyCols, wb.first[:0]
				var hs [hashBlock]uint64 // a block of the rows' key hashes
				for blo := 0; blo < rows; blo += hashBlock {
					block := hs[:min(rows-blo, hashBlock)]
					hashKeys(block, keys, base+blo)
					for bi, h := range block {
						r := base + blo + bi
						gid := tbl.group(h, func(g int) bool { return keysEqual(keys, first[g], keys, r) })
						if gid == len(first) { // a new group
							first = append(first, r)
						}
						gids[blo+bi] = gid
					}
				}
				mg.firstRow, mg.hashes = first, tbl.hashes
				if many { // the worker's buffers serve its next morsel, and this one keeps copies
					wb.first = first
					mg.firstRow, mg.hashes = slices.Clone(first), slices.Clone(tbl.hashes)
				}
				if copyKeys { // copy each group's first row out of the morsel, group lg to row lg
					mg.keyCols = (&data.Chunk{Cols: cols[:nk]}).Take(mg.firstRow).Cols
					for lg := range mg.firstRow {
						mg.firstRow[lg] = lg
					}
				}
			} else {
				// Global aggregate: every row is in group 0, the ids' zero
				// value, which exists over no rows too: it is the one row an
				// empty input still emits.
				mg.firstRow, mg.hashes = []int{0}, []uint64{0}
			}
			mg.parts = make([]*aggPartial, len(p.Aggs))
			for ai, spec := range p.Aggs {
				if spec.UDF != nil {
					continue
				}
				var arg *data.Column // nil for COUNT(*)
				if len(spec.Args) > 0 {
					if arg = cols[argAt[ai]]; inCols != nil {
						arg = arg.Slice(lo, hi)
					}
				}
				var err error
				if mg.parts[ai], err = foldNative(spec, arg, gids, len(mg.firstRow)); err != nil {
					return err
				}
			}
			switch {
			case udfAgg && wrap == nil:
				copy(groupIDs[lo:], gids)
				for _, at := range udfAt {
					if many {
						cols[at].CopyInto(udfArgs[at], lo)
					} else {
						udfArgs[at] = cols[at]
					}
				}
			case udfAgg: // the wrapper's columns are fresh: keep them as they are
				if wrapGids[m] = gids; many { // the worker's buffer serves its next morsel
					wrapGids[m] = slices.Clone(gids)
				}
				wrapUArgs[m] = data.NewChunk(choose(cols, udfAt)...)
			}
			return nil
		}
		switch {
		case prog != nil:
			return prog.use(in.morsel(&bufs[w].scr, reads, m, lo, hi), func(cols []*data.Column) error { return fold(cols, 0) })
		case inCols != nil:
			return fold(inCols, lo)
		case wrap != nil:
			return fold(wrapOut, 0)
		}
		return fold(in.morsel(&bufs[w].scr, reads, m, lo, hi).Cols, 0)
	})
	if err != nil {
		return nil, err
	}

	// Barrier: the morsels' groups merge, morsels in order, into one
	// table, which numbers the global groups in first-occurrence order, as
	// a serial scan numbers them. Morsel m's local groups get their global
	// ids in ids[off[m]:off[m+1]], and the groups it saw first are
	// first[newAt[m]:newAt[m+1]]. A lone morsel's groups are the global
	// ones.
	endMerge := e.mergeTimer(ectx.span)
	single := len(morsels) == 1
	off, newAt := make([]int, len(spans)+1), make([]int, len(spans)+1)
	for m := range morsels {
		off[m+1] = off[m] + len(morsels[m].firstRow)
	}
	var ids, first []int // first: global group id -> its first row, in its morsel's keyCols
	if single {
		first = morsels[0].firstRow
	} else {
		// When most rows start a group in their morsel, size the table for
		// every local one up front; with few groups per morsel, reserving
		// morsels × groups would cost more than the growth.
		hint := 0
		if 2*off[len(morsels)] > n {
			hint = off[len(morsels)]
		}
		global := newHashTable(hint)
		ids, first = make([]int, off[len(morsels)]), make([]int, 0, hint)
		var owner []int32 // global group id -> the morsel that saw it first
		for m := range morsels {
			mg := &morsels[m]
			newAt[m] = len(first)
			for lg, h := range mg.hashes {
				r := mg.firstRow[lg]
				gid := global.group(h, func(g int) bool {
					return keysEqual(morsels[owner[g]].keyCols, first[g], mg.keyCols, r)
				})
				if gid == len(first) { // a new group
					owner, first = append(owner, int32(m)), append(first, r)
				}
				ids[off[m]+lg] = gid
			}
		}
	}
	newAt[len(morsels)] = len(first)
	g := len(first)

	// Merge native partials through the id maps; a lone morsel's are the
	// merged ones.
	merged := make([]*aggPartial, len(p.Aggs))
	for ai, spec := range p.Aggs {
		if spec.UDF != nil {
			continue
		}
		if single {
			merged[ai] = morsels[0].parts[ai]
			continue
		}
		k := data.KindNull
		if len(spec.Args) > 0 {
			k = kinds[argAt[ai]]
		}
		merged[ai] = newPartial(spec, g, k)
		for m, mg := range morsels {
			mergeNative(merged[ai], mg.parts[ai], spec, ids[off[m]:off[m+1]])
		}
	}

	// The UDF aggregates' rows: every morsel's, in morsel order, with
	// global group ids.
	if udfAgg && !single {
		for m, s := range spans {
			var gids []int
			if wrap != nil {
				gids = wrapGids[m]
			} else {
				gids = groupIDs[s.lo:s.hi]
			}
			for r, lg := range gids {
				gids[r] = ids[off[m]+lg]
			}
		}
	}
	switch {
	case udfAgg && wrap == nil:
		for _, at := range udfAt {
			if many && !slices.Contains(udfArgs[at].Nulls, true) {
				udfArgs[at].Nulls = nil // the column was made nullable for any morsel
			}
		}
	case udfAgg:
		if groupIDs = wrapGids[0]; many {
			groupIDs = slices.Concat(wrapGids...)
		}
		joined := wrapUArgs[0]
		if many {
			joined = data.Concat(joined.Schema(), wrapUArgs)
		}
		for k, at := range udfAt {
			udfArgs[at] = joined.Cols[k]
		}
	}
	endMerge()

	out := &data.Chunk{Cols: make([]*data.Column, len(p.Schema))}
	// Key columns, gathered typed from each group's first-occurrence row.
	for ki := range p.GroupBy {
		nullable := false
		for m := range morsels {
			nullable = nullable || morsels[m].keyCols[ki].Nulls != nil
		}
		col := data.NewColumnLen(p.Schema[ki].Name, p.Schema[ki].Kind, g, nullable)
		for m := range morsels {
			morsels[m].keyCols[ki].TakeInto(col, newAt[m], first[newAt[m]:newAt[m+1]])
		}
		if nullable && !slices.Contains(col.Nulls, true) {
			col.Nulls = nil
		}
		out.Cols[ki] = col
	}
	// Aggregate columns.
	for ai, spec := range p.Aggs {
		f := p.Schema[len(p.GroupBy)+ai]
		col := data.NewColumnCap(f.Name, f.Kind, g)
		out.Cols[len(p.GroupBy)+ai] = col
		var results []data.Value
		if spec.UDF != nil {
			argCols := make([]*data.Column, len(spec.Args))
			for i, a := range spec.Args {
				argCols[i] = udfArgs[argAt[ai]+i]
				if argCols[i] == nil { // a column of the input, read as it is
					argCols[i] = cols[a.(*ColRef).Index]
				}
			}
			results, err = e.callAggregate(ectx.clone(spec.UDF), p.Op == OpFusedAgg, argCols, len(groupIDs), groupIDs, g)
			if err != nil {
				return nil, err
			}
		} else {
			if results, err = finalizeNative(spec, merged[ai], g); err != nil {
				return nil, err
			}
		}
		for _, v := range results {
			col.AppendValue(v)
		}
	}
	return out, nil
}

// sortChunk orders the chunk by the plan's sort items and then the row
// index, so no two rows tie and any sort gives the stable order. The
// keys evaluate morsel-parallel, each worker sorts a contiguous run, the
// runs merge, and the output is gathered once.
func (e *Engine) sortChunk(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	n := in.NumRows()
	exprs := make([]SQLExpr, len(p.SortItems))
	for i, s := range p.SortItems {
		exprs[i] = s.Expr
	}
	prog, err := e.compile(in, exprs, make([]data.Kind, len(exprs)))
	if err != nil {
		return nil, err
	}
	keys, err := e.runPartitioned(ectx, in, e.morselsFor(n), func(_ int, part *data.Chunk) (*data.Chunk, error) {
		cols, err := prog.run(part)
		return data.NewChunk(cols...), err
	})
	if err != nil {
		return nil, err
	}
	order := func(a, b int) int {
		for k, s := range p.SortItems {
			if c := compareRows(keys.Cols[k], a, b); c != 0 && s.Desc {
				return -c
			} else if c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if workers := e.Workers(); workers > 1 && n >= minParallelRows {
		// Sorted runs, one per worker, then merged pairwise on the pool,
		// level by level, each level's runs twice as long.
		size := (n + workers - 1) / workers
		if _, _, err := e.drive(ectx.ctx, morselPlan(n, size), false, func(_, _, lo, hi int) error { slices.SortFunc(idx[lo:hi], order); return nil }); err != nil {
			return nil, err
		}
		endMerge := e.mergeTimer(ectx.span)
		for buf := make([]int, n); size < n; size *= 2 {
			if _, _, err := e.drive(ectx.ctx, morselPlan(n, 2*size), false, func(_, _, lo, hi int) error {
				mergeRuns(buf[lo:hi], idx[lo:min(lo+size, hi)], idx[min(lo+size, hi):hi], order)
				return nil
			}); err != nil {
				return nil, err
			}
			idx, buf = buf, idx
		}
		endMerge()
	} else {
		slices.SortFunc(idx, order)
	}
	var rows [][]int // the gather's morsels
	for _, s := range e.morselsFor(n) {
		rows = append(rows, idx[s.lo:s.hi])
	}
	return e.materialize(ectx, rel{takes: []take{{cols: in.Cols, rows: rows}}})
}

// compareRows orders two rows of a sort-key column: NULL first, then by
// value, a NaN above every other float and equal to a NaN (as PostgreSQL
// and DuckDB order it); kinds with no order of their own (dicts) compare
// by their text.
func compareRows(c *data.Column, a, b int) int {
	switch an, bn := c.IsNull(a), c.IsNull(b); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch c.Kind {
	case data.KindInt:
		return cmp.Compare(c.Ints[a], c.Ints[b])
	case data.KindFloat:
		if x, y := c.Floats[a], c.Floats[b]; math.IsNaN(x) != math.IsNaN(y) {
			return cmp.Compare(y, x) // cmp.Compare puts the NaN below
		}
		return cmp.Compare(c.Floats[a], c.Floats[b])
	case data.KindString:
		return cmp.Compare(c.Strs[a], c.Strs[b])
	}
	va, vb := c.Get(a), c.Get(b)
	r, ok := data.Compare(va, vb)
	if !ok {
		r = cmp.Compare(va.String(), vb.String())
	}
	return r
}

// mergeRuns merges the sorted runs a and b into dst by order, under
// which no two rows tie.
func mergeRuns(dst, a, b []int, order func(x, y int) int) {
	i, j := 0, 0
	for o := range dst {
		if j == len(b) || i < len(a) && order(a[i], b[j]) < 0 {
			dst[o], i = a[i], i+1
		} else {
			dst[o], j = b[j], j+1
		}
	}
}
