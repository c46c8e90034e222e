package sqlengine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qfusor/internal/data"
)

// execColumnar is the vectorized operator-at-a-time executor: every
// operator materializes its full output before the parent runs
// (MonetDB's model; ModeChunked splits UDF batches but keeps the same
// operator boundaries). Operators that scan full inputs run
// morsel-parallel over the engine's worker pool (see morsel.go); the
// blocking ones keep per-worker partial state and merge at the barrier.
func (e *Engine) execColumnar(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	switch p.Op {
	case OpScan:
		t, ok := e.Catalog.Table(p.Table)
		if !ok {
			if ch, ok := ectx.ctes[lower(p.Table)]; ok {
				return ch, nil
			}
			return nil, errNoSuchTable(p.Table)
		}
		return t.Chunk(), nil
	case OpCTERef:
		ch, ok := ectx.ctes[lower(p.Table)]
		if !ok {
			return nil, fmt.Errorf("sql: CTE %s not materialized", p.Table)
		}
		return ch, nil
	case OpProject:
		if len(p.Children) == 0 {
			// FROM-less SELECT: one dummy row. The planner's placeholder
			// node has no expressions — keep the dummy row so a parent
			// projection evaluates once.
			if len(p.Exprs) == 0 {
				return oneRowChunk(), nil
			}
			return e.projectChunk(p, oneRowChunk(), ectx)
		}
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.projectChunk(p, in, ectx)
	case OpFilter:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.filterChunk(p.Exprs[0], in, ectx)
	case OpJoin:
		return e.joinChunk(p, ectx)
	case OpAggregate:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.aggregateChunk(p, in, ectx)
	case OpSort:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.sortChunk(p, in, ectx)
	case OpDistinct:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.distinctChunk(in, ectx), nil
	case OpLimit:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		lo := int(p.OffsetN)
		hi := lo + int(p.LimitN)
		n := in.NumRows()
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		return in.Slice(lo, hi), nil
	case OpUnion:
		l, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		r, err := e.execPlan(p.Children[1], ectx)
		if err != nil {
			return nil, err
		}
		out := data.Concat(p.Schema, []*data.Chunk{l, r})
		if !p.UnionAll {
			return e.distinctChunk(out, ectx), nil
		}
		return out, nil
	case OpTableFunc:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		if p.UDF.Fused {
			// A fused wrapper re-submitted as a table function (rewrite
			// path 1) uses the vector calling convention.
			return e.runFusedAsTable(p, in, ectx)
		}
		extra := make([]data.Value, len(p.TFArgs))
		for i, a := range p.TFArgs {
			v, err := e.evalRow(a, nil)
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
	case OpExpand:
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return e.expandChunk(p, in)
	case OpFused, OpFusedAgg:
		return e.execFusedColumnar(p, ectx)
	}
	return nil, fmt.Errorf("sql: columnar executor: unsupported op %s", p.Op)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

func oneRowChunk() *data.Chunk {
	c := data.NewColumn("__dummy", data.KindInt)
	c.AppendInt(0)
	return data.NewChunk(c)
}

// projectChunk evaluates the projection expressions over the chunk,
// split into morsels (ModeChunked batches double as morsels) and driven
// by the worker pool. The expressions compile into one program, so a
// subtree repeated between output columns (or within one, as relational
// inlining produces) evaluates once per morsel.
func (e *Engine) projectChunk(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	want := make([]data.Kind, len(p.Schema))
	for i, f := range p.Schema {
		want[i] = f.Kind
	}
	prog, err := e.compile(in, p.Exprs, want)
	if err != nil {
		return nil, err
	}
	return e.runPartitioned(ectx, in, in.NumRows(), func(_ int, part *data.Chunk) (*data.Chunk, error) {
		cols, err := prog.run(part)
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			if prog.roots[i] < len(part.Cols) {
				mZeroCopyCols.Inc() // a column reference of matching kind passes through
			}
			cp := *c // the result may be the input's own column
			cp.Name = p.Schema[i].Name
			cols[i] = &cp
		}
		return data.NewChunk(cols...), nil
	})
}

// filterChunk keeps rows where the predicate holds. Each morsel lists
// its kept rows; the output is then gathered once, into columns sized for
// every morsel's rows.
func (e *Engine) filterChunk(pred SQLExpr, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	prog, err := e.compile(in, []SQLExpr{pred}, []data.Kind{data.KindBool})
	if err != nil {
		return nil, err
	}
	keep, err := partitioned(e, ectx, in, in.NumRows(), func(lo int, part *data.Chunk) ([]int, error) {
		cols, err := prog.run(part)
		if err != nil {
			return nil, err
		}
		return trueRows(cols[0], lo), nil
	})
	if err != nil {
		return nil, err
	}
	cols, err := e.gather(ectx, take{cols: in.Cols, rows: keep})
	if err != nil {
		return nil, err
	}
	return &data.Chunk{Cols: cols}, nil
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

// expandChunk applies an expand UDF per row, replicating kept columns.
func (e *Engine) expandChunk(p *Plan, in *data.Chunk) (*data.Chunk, error) {
	n := in.NumRows()
	argCols := make([]*data.Column, len(p.TFArgs))
	for i, a := range p.TFArgs {
		cr, ok := a.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: expand arg must be a column ref")
		}
		argCols[i] = in.Cols[cr.Index]
	}
	perRow, err := e.Invoker.CallExpand(e.q.clone(p.UDF), argCols, n)
	if err != nil {
		return nil, err
	}
	out := data.EmptyChunk(p.Schema)
	nKeep := len(p.KeepCols)
	var rep []int // the input row of each output row
	for i := 0; i < n; i++ {
		for _, row := range perRow[i] {
			rep = append(rep, i)
			for j := 0; j < len(out.Cols)-nKeep; j++ {
				if j < len(row) {
					out.Cols[nKeep+j].AppendValue(row[j])
				} else {
					out.Cols[nKeep+j].AppendNull()
				}
			}
		}
	}
	for k, ci := range p.KeepCols {
		out.Cols[k] = in.Cols[ci].Take(rep)
		out.Cols[k].Name = p.Schema[k].Name
	}
	return out, nil
}

// joinChunk executes a join one morsel of left rows at a time. A
// morsel's candidate pairs — the build table's hits for an equi join,
// every right row for a nested loop — pass through the residual's
// compiled filter, and a LEFT join then gives each left row left without
// a pair one NULL-extended pair. Once every morsel has its (left row,
// right row) index lists, the output columns are gathered from them into
// one preallocated chunk, each morsel into its own rows. The build table
// is written before the pool starts and only read afterwards, so probing
// needs no locks; the morsels' rows land in input order, so the output is
// identical at any parallelism.
func (e *Engine) joinChunk(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	l, err := e.execPlan(p.Children[0], ectx)
	if err != nil {
		return nil, err
	}
	r, err := e.execPlan(p.Children[1], ectx)
	if err != nil {
		return nil, err
	}
	nl := len(p.Children[0].Schema)
	leftKeys, rightKeys, residual := splitEquiJoin(p.JoinOn, nl)
	var build map[string][]int
	if len(leftKeys) > 0 {
		// Build phase (serial: the build side is the smaller input and the
		// map write path would need sharding to parallelize safely).
		build = make(map[string][]int)
		var kb []byte
		for j := 0; j < r.NumRows(); j++ {
			kb = appendRowKey(kb[:0], r, rightKeys, j)
			k := string(kb)
			build[k] = append(build[k], j)
		}
	}
	filter, err := e.joinFilter(l, r, residual)
	if err != nil {
		return nil, err
	}
	nL, nR := l.NumRows(), r.NumRows()
	batch := e.morselSize()
	k := len(e.morselsFor(nL))
	lrows, rrows := make([][]int, k), make([][]int, k)
	var padded atomic.Bool // some left row has no pair: the right columns get a null mask
	_, err = e.runMorsels(ectx, nL, func(_, m, lo, hi int) error {
		// Sized for one pair per left row, a key join's usual yield.
		li, ri := make([]int, 0, hi-lo), make([]int, 0, hi-lo)
		var kb []byte
		done := 0 // the pairs before done passed the residual
		for i := lo; i < hi; i++ {
			if build != nil {
				kb = appendRowKey(kb[:0], l, leftKeys, i)
				for _, j := range build[string(kb)] {
					li, ri = append(li, i), append(ri, j)
				}
			} else {
				for j := 0; j < nR; j++ {
					li, ri = append(li, i), append(ri, j)
				}
			}
			// The residual runs over batches of candidates, so a nested
			// loop holds at most one batch and one left row's pairs beyond
			// its output.
			if filter != nil && (len(li)-done >= batch || i == hi-1) {
				kept, err := filter(li[done:], ri[done:])
				if err != nil {
					return err
				}
				li, ri = li[:done+kept], ri[:done+kept]
				done = len(li)
			}
		}
		if p.JoinKind == "LEFT" {
			var pad bool
			if li, ri, pad = padLeft(li, ri, lo, hi); pad {
				padded.Store(true)
			}
		}
		lrows[m], rrows[m] = li, ri
		return nil
	})
	if err != nil {
		return nil, err
	}
	cols, err := e.gather(ectx, take{cols: l.Cols, rows: lrows}, take{cols: r.Cols, rows: rrows, nulls: padded.Load()})
	if err != nil {
		return nil, err
	}
	for c, col := range cols {
		col.Name = p.Schema[c].Name
	}
	return &data.Chunk{Cols: cols}, nil
}

// joinFilter compiles a join's residual predicate once, over just the
// columns it reads. The filter it returns gathers those columns for a
// list of candidate pairs, runs the program over them — each UDF
// crossing on its own worker clone, as in every program — and compacts
// the pairs in place to the ones the predicate holds for, returning how
// many remain. A nil residual gives a nil filter.
func (e *Engine) joinFilter(l, r *data.Chunk, residual SQLExpr) (func(li, ri []int) (int, error), error) {
	if residual == nil {
		return nil, nil
	}
	nl := len(l.Cols)
	var reads []int // joined column index per slot of the gathered chunk
	slotOf := map[int]int{}
	pred := RewriteExpr(residual, func(x SQLExpr) SQLExpr {
		if cr, ok := x.(*ColRef); ok {
			s, seen := slotOf[cr.Index]
			if !seen {
				s = len(reads)
				slotOf[cr.Index] = s
				reads = append(reads, cr.Index)
			}
			cr.Index = s
		}
		return x
	})
	if len(reads) == 0 {
		reads = []int{0} // a column, for the row count
	}
	src := make([]*data.Column, len(reads))
	for s, x := range reads {
		if x < nl {
			src[s] = l.Cols[x]
		} else {
			src[s] = r.Cols[x-nl]
		}
	}
	prog, err := e.compile(data.NewChunk(src...), []SQLExpr{pred}, []data.Kind{data.KindBool})
	if err != nil {
		return nil, err
	}
	return func(li, ri []int) (int, error) {
		cand := make([]*data.Column, len(src))
		for s, x := range reads {
			if x < nl {
				cand[s] = src[s].Take(li)
			} else {
				cand[s] = src[s].Take(ri)
			}
		}
		cols, err := prog.run(data.NewChunk(cand...))
		if err != nil {
			return 0, err
		}
		keep := trueRows(cols[0], 0)
		for n, k := range keep {
			li[n], ri[n] = li[k], ri[k]
		}
		return len(keep), nil
	}, nil
}

// padLeft gives every left row in [lo, hi) that no pair names the pair
// (i, -1), in left-row order: a LEFT join's NULL-extended rows. The pairs
// come ordered by left row; padded reports whether any row got one.
func padLeft(li, ri []int, lo, hi int) (_, _ []int, padded bool) {
	pl := make([]int, 0, len(li)+hi-lo)
	pr := make([]int, 0, len(li)+hi-lo)
	x := 0
	for i := lo; i < hi; i++ {
		if x == len(li) || li[x] != i {
			pl, pr = append(pl, i), append(pr, -1)
			continue
		}
		for ; x < len(li) && li[x] == i; x++ {
			pl, pr = append(pl, i), append(pr, ri[x])
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
// it has no decomposition and must see every value).
type aggPartial struct {
	counts []int64
	sums   []float64
	scount []int64
	allInt bool
	best   []data.Value
	vals   [][]float64
}

// foldNative folds one native aggregate over a morsel into pt, using
// morsel-local group ids (one per row). arg is the aggregate's evaluated
// argument column, nil for COUNT(*).
func foldNative(pt *aggPartial, spec AggSpec, arg *data.Column, gids []int, g int) error {
	pt.allInt = true
	switch spec.Name {
	case "count":
		pt.counts = make([]int64, g)
		for i, gid := range gids {
			if arg == nil || !arg.IsNull(i) {
				pt.counts[gid]++
			}
		}
	case "sum", "avg":
		pt.sums = make([]float64, g)
		pt.scount = make([]int64, g)
		pt.allInt = arg.Kind != data.KindFloat
		switch arg.Kind {
		case data.KindInt:
			sumInto(pt, arg.Ints, arg.Nulls, gids)
		case data.KindFloat:
			sumInto(pt, arg.Floats, arg.Nulls, gids)
		default:
			for i, gid := range gids {
				if f, ok := arg.Get(i).AsFloat(); ok {
					pt.sums[gid] += f
					pt.scount[gid]++
				}
			}
		}
	case "min", "max":
		pt.best = make([]data.Value, g)
		for i, gid := range gids {
			if !arg.IsNull(i) {
				foldBest(spec.Name, pt.best, gid, arg.Get(i))
			}
		}
	case "median":
		pt.vals = make([][]float64, g)
		for i, gid := range gids {
			if f, ok := arg.Get(i).AsFloat(); ok {
				pt.vals[gid] = append(pt.vals[gid], f)
			}
		}
	default:
		return fmt.Errorf("sql: unknown aggregate %s", spec.Name)
	}
	return nil
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

// foldBest applies the min/max comparison rule: first non-null wins the
// seat, later values replace it only when comparable and strictly
// better (identical to the serial fold, so the merge at the barrier
// keeps the earliest-morsel winner on incomparable ties).
func foldBest(name string, best []data.Value, gid int, v data.Value) {
	if best[gid].IsNull() {
		best[gid] = v
		return
	}
	c, ok := data.Compare(v, best[gid])
	if !ok {
		return
	}
	if (name == "min" && c < 0) || (name == "max" && c > 0) {
		best[gid] = v
	}
}

// mergeNative folds src (one morsel's partial, local group ids) into
// dst (global group ids) through the local→global id map.
func mergeNative(dst, src *aggPartial, spec AggSpec, l2g []int) {
	if !src.allInt {
		dst.allInt = false
	}
	switch spec.Name {
	case "count":
		for lg, c := range src.counts {
			dst.counts[l2g[lg]] += c
		}
	case "sum", "avg":
		for lg, s := range src.sums {
			dst.sums[l2g[lg]] += s
			dst.scount[l2g[lg]] += src.scount[lg]
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
// values.
func finalizeNative(spec AggSpec, pt *aggPartial, g int) []data.Value {
	out := make([]data.Value, g)
	switch spec.Name {
	case "count":
		for i := 0; i < g; i++ {
			out[i] = data.Int(pt.counts[i])
		}
	case "sum", "avg":
		for i := 0; i < g; i++ {
			if pt.scount[i] == 0 {
				out[i] = data.Null
				continue
			}
			if spec.Name == "avg" {
				out[i] = data.Float(pt.sums[i] / float64(pt.scount[i]))
			} else if pt.allInt {
				out[i] = data.Int(int64(pt.sums[i]))
			} else {
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
	return out
}

// newGlobalPartial allocates the merged partial for a spec with g
// global groups.
func newGlobalPartial(spec AggSpec, g int) *aggPartial {
	pt := &aggPartial{allInt: true}
	switch spec.Name {
	case "count":
		pt.counts = make([]int64, g)
	case "sum", "avg":
		pt.sums = make([]float64, g)
		pt.scount = make([]int64, g)
	case "min", "max":
		pt.best = make([]data.Value, g)
	case "median":
		pt.vals = make([][]float64, g)
	}
	return pt
}

// aggregateChunk groups the input and folds native and UDF aggregates.
// It runs morsel-parallel: each worker builds a thread-local hash table
// over its morsels (group keys via the separator-safe byte encoding)
// and folds native partials with morsel-local group ids; the barrier
// merges the local tables in morsel order — which reproduces the serial
// first-occurrence group order exactly — then merges the partials
// through the local→global id maps. UDF aggregates keep the single
// invoker call over the merged global group vector: the generic path
// cannot assume the aggregate is decomposable (decomposable traced
// aggregates take the partial path in exec_fused.go instead).
func (e *Engine) aggregateChunk(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	sp := ectx.span
	n := in.NumRows()
	spans := e.morselsFor(n)

	type morselGroups struct {
		cols     []*data.Column // the node's evaluated expressions, morsel rows
		localGID []int          // morsel row -> local group id
		keys     []string       // local group id -> encoded key
		firstRow []int          // local group id -> morsel-local first row
		parts    []*aggPartial  // per agg spec; nil for UDF aggs
	}
	morsels := make([]*morselGroups, len(spans))

	// One program per node: the group-by keys, then each aggregate's
	// arguments from argAt[ai] on. A UDF aggregate's computed argument
	// materializes at the declared parameter kind.
	exprs := append([]SQLExpr(nil), p.GroupBy...)
	want := make([]data.Kind, len(exprs))
	argAt := make([]int, len(p.Aggs))
	for ai, spec := range p.Aggs {
		argAt[ai] = len(exprs)
		for i, a := range spec.Args {
			kind := data.KindNull
			if _, isCol := a.(*ColRef); spec.UDF != nil && !isCol {
				kind = data.KindString
				if i < len(spec.UDF.InKinds) {
					kind = spec.UDF.InKinds[i]
				}
			}
			exprs, want = append(exprs, a), append(want, kind)
		}
	}
	prog, err := e.compile(in, exprs, want)
	if err != nil {
		return nil, err
	}

	_, err = e.runMorsels(ectx, n, func(_, m, lo, hi int) error {
		cols, err := prog.run(in.Slice(lo, hi))
		if err != nil {
			return err
		}
		mg := &morselGroups{cols: cols, localGID: make([]int, hi-lo)}
		if len(p.GroupBy) > 0 {
			seen := make(map[string]int)
			var kb []byte
			for i := 0; i < hi-lo; i++ {
				kb = kb[:0]
				for _, kc := range cols[:len(p.GroupBy)] {
					kb = appendColKey(kb, kc, i)
				}
				gid, ok := seen[string(kb)]
				if !ok {
					gid = len(mg.keys)
					k := string(kb)
					seen[k] = gid
					mg.keys = append(mg.keys, k)
					mg.firstRow = append(mg.firstRow, i)
				}
				mg.localGID[i] = gid
			}
		} else if hi > lo {
			// Global aggregate: every row folds into one group.
			mg.keys = []string{""}
			mg.firstRow = []int{0}
		}
		mg.parts = make([]*aggPartial, len(p.Aggs))
		for ai, spec := range p.Aggs {
			if spec.UDF != nil {
				continue
			}
			mg.parts[ai] = &aggPartial{}
			var arg *data.Column // nil for COUNT(*)
			if len(spec.Args) > 0 {
				arg = cols[argAt[ai]]
			}
			if err := foldNative(mg.parts[ai], spec, arg, mg.localGID, len(mg.keys)); err != nil {
				return err
			}
		}
		morsels[m] = mg
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Barrier: merge local group tables in morsel order so global group
	// ids follow first occurrence over the whole input, like the serial
	// scan did.
	endMerge := e.mergeTimer(sp)
	globalIdx := make(map[string]int)
	type groupRef struct{ m, row int }
	var groups []groupRef
	l2g := make([][]int, len(spans))
	for m, mg := range morsels {
		l2g[m] = make([]int, len(mg.keys))
		for lg, k := range mg.keys {
			gid, ok := globalIdx[k]
			if !ok {
				gid = len(groups)
				globalIdx[k] = gid
				groups = append(groups, groupRef{m, mg.firstRow[lg]})
			}
			l2g[m][lg] = gid
		}
	}
	g := len(groups)
	if len(p.GroupBy) == 0 && g == 0 {
		// Empty input still emits one (null/zero) aggregate row.
		g = 1
	}

	// Merge native partials through the id maps.
	merged := make([]*aggPartial, len(p.Aggs))
	for ai, spec := range p.Aggs {
		if spec.UDF != nil {
			continue
		}
		merged[ai] = newGlobalPartial(spec, g)
		for m, mg := range morsels {
			mergeNative(merged[ai], mg.parts[ai], spec, l2g[m])
		}
	}

	// UDF aggregates need the full-length global group vector.
	var groupIDs []int
	needGID := false
	for _, spec := range p.Aggs {
		if spec.UDF != nil {
			needGID = true
		}
	}
	if needGID {
		groupIDs = make([]int, n)
		for m, mg := range morsels {
			lo := spans[m].lo
			for r, lg := range mg.localGID {
				groupIDs[lo+r] = l2g[m][lg]
			}
		}
	}
	endMerge()

	out := data.EmptyChunk(p.Schema)
	// Key columns from each group's first-occurrence row.
	for ki := range p.GroupBy {
		col := out.Cols[ki]
		for _, ref := range groups {
			col.AppendValue(morsels[ref.m].cols[ki].Get(ref.row))
		}
	}
	// Aggregate columns.
	for ai, spec := range p.Aggs {
		col := out.Cols[len(p.GroupBy)+ai]
		var results []data.Value
		if spec.UDF != nil {
			argCols := make([]*data.Column, len(spec.Args))
			for i, a := range spec.Args {
				if cr, ok := a.(*ColRef); ok {
					argCols[i] = in.Cols[cr.Index]
					continue
				}
				// Intermediate materialization: the morsels' results
				// become one engine column.
				at := argAt[ai] + i
				parts := make([]*data.Chunk, len(morsels))
				for m, mg := range morsels {
					parts[m] = data.NewChunk(mg.cols[at])
				}
				argCols[i] = e.concat(sp, data.Schema{{Kind: prog.kinds[prog.roots[at]]}}, parts).Cols[0]
			}
			results, err = e.Invoker.CallAggregate(ectx.clone(spec.UDF), argCols, n, groupIDs, g)
			if err != nil {
				return nil, err
			}
		} else {
			results = finalizeNative(spec, merged[ai], g)
		}
		for _, v := range results {
			col.AppendValue(v)
		}
	}
	return out, nil
}

// sortChunk orders the chunk by the plan's sort items: the key vectors
// evaluate morsel-parallel into shared (disjoint) ranges, each worker
// stable-sorts a contiguous run, and the runs fold together with a
// pairwise stable merge — ties always prefer the earlier run, so the
// result is identical to a full stable sort.
func (e *Engine) sortChunk(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	sp := ectx.span
	n := in.NumRows()
	exprs := make([]SQLExpr, len(p.SortItems))
	for i, s := range p.SortItems {
		exprs[i] = s.Expr
	}
	prog, err := e.compile(in, exprs, make([]data.Kind, len(exprs)))
	if err != nil {
		return nil, err
	}
	keys, err := e.runPartitioned(ectx, in, n, func(_ int, part *data.Chunk) (*data.Chunk, error) {
		cols, err := prog.run(part)
		return data.NewChunk(cols...), err
	})
	if err != nil {
		return nil, err
	}
	less := func(a, b int) bool {
		for k, s := range p.SortItems {
			c := compareRows(keys.Cols[k], a, b)
			if c == 0 {
				continue
			}
			if s.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	workers := e.Workers()
	if workers <= 1 || n < minParallelRows {
		sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return in.Take(idx), nil
	}
	// Sorted runs: one contiguous range per worker.
	per := (n + workers - 1) / workers
	runs := morselPlan(n, per)
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r morselSpan) {
			defer wg.Done()
			seg := idx[r.lo:r.hi]
			sort.SliceStable(seg, func(a, b int) bool { return less(seg[a], seg[b]) })
		}(r)
	}
	wg.Wait()
	endMerge := e.mergeTimer(sp)
	buf := make([]int, n)
	for len(runs) > 1 {
		next := make([]morselSpan, 0, (len(runs)+1)/2)
		var mwg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				copy(buf[r.lo:r.hi], idx[r.lo:r.hi])
				next = append(next, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			mwg.Add(1)
			go func(a, b morselSpan) {
				defer mwg.Done()
				mergeRuns(idx, buf, a, b, less)
			}(a, b)
			next = append(next, morselSpan{a.lo, b.hi})
		}
		mwg.Wait()
		idx, buf = buf, idx
		runs = next
	}
	endMerge()
	return e.takeParallel(ectx, in, idx), nil
}

// compareRows orders two rows of a sort-key column as data.Compare
// orders their values: NULL first, then by value; kinds with no order of
// their own (dicts) compare by their text.
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
		return order(c.Ints[a], c.Ints[b])
	case data.KindFloat:
		return order(c.Floats[a], c.Floats[b])
	case data.KindString:
		return order(c.Strs[a], c.Strs[b])
	}
	va, vb := c.Get(a), c.Get(b)
	r, ok := data.Compare(va, vb)
	if !ok {
		r = order(va.String(), vb.String())
	}
	return r
}

// order is the three-way comparison of data.Compare: a NaN is neither
// below nor above anything, so it orders equal.
func order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// mergeRuns stable-merges two adjacent sorted runs of src into the same
// positions of dst: an element from the right run only passes the left
// one when strictly less, preserving input order on ties.
func mergeRuns(src, dst []int, a, b morselSpan, less func(x, y int) bool) {
	i, j, o := a.lo, b.lo, a.lo
	for i < a.hi && j < b.hi {
		if less(src[j], src[i]) {
			dst[o] = src[j]
			j++
		} else {
			dst[o] = src[i]
			i++
		}
		o++
	}
	for i < a.hi {
		dst[o] = src[i]
		i++
		o++
	}
	for j < b.hi {
		dst[o] = src[j]
		j++
		o++
	}
}

// distinctChunk removes duplicate rows: morsel-local dedup tables keep
// each worker's first sightings, and the barrier merges them in morsel
// order so the kept row set (and order) matches the serial scan.
func (e *Engine) distinctChunk(in *data.Chunk, ectx *execCtx) *data.Chunk {
	sp := ectx.span
	n := in.NumRows()
	spans := e.morselsFor(n)
	type dedup struct {
		keys []string
		rows []int
	}
	parts := make([]dedup, len(spans))
	_, _ = e.runMorsels(ectx, n, func(_, m, lo, hi int) error {
		seen := make(map[string]bool)
		var d dedup
		var kb []byte
		for i := lo; i < hi; i++ {
			kb = kb[:0]
			for _, c := range in.Cols {
				kb = appendColKey(kb, c, i)
			}
			if !seen[string(kb)] {
				k := string(kb)
				seen[k] = true
				d.keys = append(d.keys, k)
				d.rows = append(d.rows, i)
			}
		}
		parts[m] = d
		return nil
	})
	endMerge := e.mergeTimer(sp)
	seen := make(map[string]bool, n)
	var idx []int
	for _, d := range parts {
		for x, k := range d.keys {
			if !seen[k] {
				seen[k] = true
				idx = append(idx, d.rows[x])
			}
		}
	}
	endMerge()
	return e.takeParallel(ectx, in, idx)
}
