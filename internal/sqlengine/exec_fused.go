package sqlengine

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// The two plan operators QFusor's rewriter injects (§5.4, path 2: the
// rewritten plan is dispatched straight to the execution engine).

const (
	// OpFused runs a fused wrapper UDF over its child's columns; it may
	// change cardinality (offloaded filters/expands/distinct run inside).
	OpFused PlanOp = 100 + iota
	// OpFusedAgg runs a fused aggregating wrapper: its compiled trace
	// groups (the exported internal group-by) and folds per group.
	OpFusedAgg
)

func init() {
	// Extend the operator printer for the fused ops.
	fusedOpNames[OpFused] = "Fused"
	fusedOpNames[OpFusedAgg] = "FusedAgg"
}

var fusedOpNames = map[PlanOp]string{}

// execFusedColumnar executes OpFused/OpFusedAgg in the vectorized
// executors.
func (e *Engine) execFusedColumnar(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	in, err := e.execPlan(p.Children[0], ectx)
	if err != nil {
		return nil, err
	}
	return e.runFused(p, in, ectx)
}

// runFusedAsTable executes a fused wrapper invoked through table-
// function syntax (the SQL produced by rewrite path 1): every child
// column feeds the wrapper in order.
func (e *Engine) runFusedAsTable(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	proxy := &Plan{Op: OpFused, UDF: p.UDF, Schema: p.Schema, Quals: p.Quals,
		NoPartition: p.NoPartition, EstRows: p.EstRows}
	for i := range in.Cols {
		proxy.TFArgs = append(proxy.TFArgs, &ColRef{Name: in.Cols[i].Name, Index: i})
	}
	return e.runFused(proxy, in, ectx)
}

// runFused applies the fused wrapper over a materialized input chunk. It
// runs on the query's clone of the wrapper (and, per morsel worker, on
// clones of that clone) — never on the catalog's UDF.
func (e *Engine) runFused(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	u := ectx.clone(p.UDF)
	n := in.NumRows()
	args := make([]*data.Column, len(p.TFArgs))
	for i, a := range p.TFArgs {
		cr, ok := a.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: fused input must be a column ref, got %T", a)
		}
		if cr.Index < 0 || cr.Index >= len(in.Cols) {
			return nil, fmt.Errorf("sql: fused input %s out of range", cr)
		}
		args[i] = in.Cols[cr.Index]
	}
	names := p.Schema.Names()
	kinds := make([]data.Kind, len(p.Schema))
	for i, f := range p.Schema {
		kinds[i] = f.Kind
	}
	if p.Op == OpFused {
		if p.NoPartition {
			cols, err := ffi.CallFusedVector(u, args, n, names, kinds)
			if err != nil {
				return nil, err
			}
			return data.NewChunk(cols...), nil
		}
		// Stateless fused wrappers are embarrassingly parallel over row
		// ranges (like the engine's own vectorized operators). One span is
		// one clone of u (own pylite interpreter view, own Stats, folded
		// back into u when the span is done) and one crossing; morselsFor
		// is what keeps Parallelism 1 operator-at-a-time.
		return e.runPartitioned(ectx, data.NewChunk(args...), n, func(_ int, part *data.Chunk) (*data.Chunk, error) {
			cu := u.WorkerClone()
			defer u.AbsorbWorker(cu)
			cols, err := ffi.CallFusedVector(cu, part.Cols, part.NumRows(), names, kinds)
			if err != nil {
				return nil, err
			}
			return data.NewChunk(cols...), nil
		})
	}
	// OpFusedAgg: grouping happens inside the wrapper's compiled trace
	// (after fused filters) via the native group-by export. The optimizer
	// only emits the node for a traced wrapper (core/codegen.go).
	tr := u.Trace()
	if tr == nil {
		return nil, fmt.Errorf("sql: aggregating fused wrapper %s has no compiled trace", u.Name)
	}
	// Decomposable aggregates (including avg and UDF aggregates with a
	// merge hook) run as per-worker partial states over morsels, merged
	// at the barrier.
	if e.Workers() > 1 && !p.NoPartition && tr.PartialMergeable() && n >= minParallelRows {
		return e.runTraceAggMorsels(u, tr, args, n, names, kinds, ectx)
	}
	cols, err := ffi.RunTraceAgg(u, tr, args, n, names, kinds)
	if err != nil {
		return nil, err
	}
	return data.NewChunk(cols...), nil
}

// runTraceAggMorsels executes an aggregating trace as per-morsel partial
// group tables (each on its own clone of u), merging the live states at
// the barrier (partial aggregation + merge, §5.3.2 applied in parallel).
func (e *Engine) runTraceAggMorsels(u *ffi.UDF, tr *ffi.Trace, args []*data.Column, n int, names []string, kinds []data.Kind, ectx *execCtx) (*data.Chunk, error) {
	argChunk := data.NewChunk(args...)
	parts := make([]*ffi.TraceAggPartial, len(e.morselsFor(n)))
	_, err := e.runMorsels(ectx, n, func(_, m, lo, hi int) (err error) {
		cu := u.WorkerClone()
		defer u.AbsorbWorker(cu)
		parts[m], err = ffi.RunTraceAggPartial(cu, tr, argChunk.Slice(lo, hi).Cols, hi-lo)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer e.mergeTimer(ectx.span)()
	cols, err := ffi.FinalizeTraceAggPartials(u, tr, parts, names, kinds)
	if err != nil {
		return nil, err
	}
	return data.NewChunk(cols...), nil
}
