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
	// change cardinality (offloaded filters and expands run inside). A
	// wrapper only yields rows: a fused DISTINCT, like any section ending
	// in a group-by, is an OpFusedAgg.
	OpFused PlanOp = 100 + iota
	// OpFusedAgg is a fused section ending in a group-by: per morsel its
	// wrapper yields the group keys and aggregate arguments, which the
	// engine's aggregate folds in the same loop (GroupBy and Aggs are
	// over the wrapper's output columns), so nothing is materialized for
	// the whole input between the section and its group-by.
	OpFusedAgg
)

func init() {
	// Extend the operator printer for the fused ops.
	fusedOpNames[OpFused] = "Fused"
	fusedOpNames[OpFusedAgg] = "FusedAgg"
}

var fusedOpNames = map[PlanOp]string{}

// runFusedAsTable executes a fused wrapper invoked through table-
// function syntax (the SQL produced by rewrite path 1): every child
// column feeds the wrapper in order.
func (e *Engine) runFusedAsTable(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	proxy := &Plan{Op: OpFused, UDF: p.UDF, Schema: p.Schema, Quals: p.Quals, EstRows: p.EstRows}
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
	reads, err := fusedReads(p, len(in.Cols))
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	names := p.Schema.Names()
	kinds := make([]data.Kind, len(p.Schema))
	for i, f := range p.Schema {
		kinds[i] = f.Kind
	}
	// Fused wrappers are embarrassingly parallel over row ranges (like
	// the engine's own vectorized operators), save a source-driven one
	// (spansFor). morselsFor is what keeps Parallelism 1
	// operator-at-a-time.
	spans := e.spansFor(p, n)
	return e.runPartitioned(ectx, data.NewChunk(choose(in.Cols, reads)...), spans, func(_ int, part *data.Chunk) (*data.Chunk, error) {
		cols, _, err := fusedMorsel(u, len(spans) == 1, part.Cols, part.NumRows(), names, kinds)
		return data.NewChunk(cols...), err
	})
}

// spansFor splits a node's n input rows: into the engine's morsels, or
// into one when the node is sourceDriven, reached as a fused node or by
// name from path-1 SQL.
func (e *Engine) spansFor(p *Plan, n int) []morselSpan {
	if sourceDriven(p) {
		return morselPlan(n, n)
	}
	return e.morselsFor(n)
}

// sourceDriven reports whether node p's fused wrapper is driven by a
// FROM-position table UDF, which consumes its whole input as one morsel.
func sourceDriven(p *Plan) bool {
	return p.UDF != nil && p.UDF.Fused && p.UDF.Trace().Source != nil
}

// fusedReads returns the input columns, of ncols, that a fused node
// feeds its wrapper.
func fusedReads(p *Plan, ncols int) ([]int, error) {
	reads := make([]int, len(p.TFArgs))
	for i, a := range p.TFArgs {
		cr, ok := a.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: fused input must be a column ref, got %T", a)
		}
		if cr.Index < 0 || cr.Index >= ncols {
			return nil, fmt.Errorf("sql: fused input %s out of range", cr)
		}
		reads[i] = cr.Index
	}
	return reads, nil
}

// fusedMorsel runs one morsel of a fused node: the wrapper over n rows
// of its input columns. Unless the morsel is the node's only one
// (alone), it runs on a worker clone of the query's clone u (own pylite
// interpreter view, own Stats, folded back into u when the morsel is
// done), so parallel morsels share no state. It is one crossing, and
// returns the wrapper's output columns and the number of rows it
// yielded.
func fusedMorsel(u *ffi.UDF, alone bool, args []*data.Column, n int, names []string, kinds []data.Kind) ([]*data.Column, int, error) {
	if !alone {
		cu := u.WorkerClone()
		defer u.AbsorbWorker(cu)
		u = cu
	}
	return ffi.CallFusedVector(u, args, n, names, kinds)
}
