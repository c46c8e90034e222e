package core

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// fusedResult is the realization of one fusible section: replacement
// plan nodes (bottom-up, children unwired) plus the rendered wrapper.
type fusedResult struct {
	// MovedPreds are filter predicates reordered out of the section
	// (F3), to run engine-side below the fused node. Bound against the
	// child schema.
	MovedPreds []sqlengine.SQLExpr
	// Nodes are the fused plan node(s), bottom-up (two when an
	// aggregate section is split).
	Nodes []*sqlengine.Plan
	// Sources are the rendered wrapper traces (for EXPLAIN/examples).
	Sources []string
	// SpanLo/SpanHi is the replaced plan-node range in the segment.
	SpanLo, SpanHi int
	// Wrapper is the registered wrapper's name; Cached reports whether it
	// was reused from the compile cache rather than freshly generated.
	Wrapper string
	Cached  bool
	// Tier is the execution tier the wrapper runs on.
	Tier Tier
}

// generateSection lowers a discovered section into fused wrapper(s)
// following the loop-fusion templates (Table 2) and the relational
// offloading rules (Table 3).
func (qf *QFusor) generateSection(seg *Segment, g *DFG, sec *Section) (*fusedResult, error) {
	inSec := map[int]bool{}
	for _, v := range sec.Nodes {
		inSec[v] = true
	}
	lo, hi := spanOf(g, inSec)
	top := seg.Chain[hi]

	if top.Op == sqlengine.OpAggregate && keysHaveUDF(top) {
		// Group keys calling UDFs are not resolvable to trace registers;
		// shrink the section below the aggregate (the keys then run
		// through the engine's vectorized UDF path).
		return qf.generateShrunk(seg, g, sec, hi)
	}

	res, err := qf.emitWrapper(seg, g, inSec, lo, hi)
	if err != nil {
		return nil, err
	}
	res.MovedPreds, err = qf.movedPredicates(seg, g, sec.Reordered, lo)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// generateShrunk drops the nodes at plan index hi and realizes the rest.
func (qf *QFusor) generateShrunk(seg *Segment, g *DFG, sec *Section, hi int) (*fusedResult, error) {
	var rest []int
	for _, v := range sec.Nodes {
		if g.Nodes[v].PlanIdx < hi {
			rest = append(rest, v)
		}
	}
	if len(rest) < 2 {
		return nil, nil
	}
	var moved []int
	for _, v := range sec.Reordered {
		if g.Nodes[v].PlanIdx < hi {
			moved = append(moved, v)
		}
	}
	return qf.generateSection(seg, g, &Section{Nodes: rest, Reordered: moved})
}

// keysHaveUDF reports whether any group key calls a UDF.
func keysHaveUDF(p *sqlengine.Plan) bool {
	for _, k := range p.GroupBy {
		if countUDFCalls(k) > 0 {
			return true
		}
	}
	return false
}

func fieldAt(g *DFG, pi, col int) string {
	var fields []string
	if pi < 0 {
		fields = g.BaseFields
	} else if pi < len(g.PlanFields) {
		fields = g.PlanFields[pi]
	}
	if col < 0 || col >= len(fields) {
		return ""
	}
	return fields[col]
}

func fieldsBelow(g *DFG, lo int) []string {
	if lo == 0 {
		return g.BaseFields
	}
	return g.PlanFields[lo-1]
}

// movedPredicates rebinds reordered filters against the child schema.
func (qf *QFusor) movedPredicates(seg *Segment, g *DFG, moved []int, lo int) ([]sqlengine.SQLExpr, error) {
	below := fieldsBelow(g, lo)
	pos := map[string]int{}
	for i, f := range below {
		pos[f] = i
	}
	childSchema := childSchemaOf(seg, lo)
	var out []sqlengine.SQLExpr
	for _, id := range moved {
		nd := g.Nodes[id]
		if nd.Kind != KRelFilter || nd.Expr == nil {
			continue
		}
		e, err := substFieldRefs(nd.Expr, pos, childSchema)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func childSchemaOf(seg *Segment, lo int) data.Schema {
	if lo == 0 {
		if seg.Base != nil {
			return seg.Base.Schema
		}
		return data.Schema{}
	}
	return seg.Chain[lo-1].Schema
}

// substFieldRefs replaces DFG-field placeholders with plan column refs.
func substFieldRefs(e sqlengine.SQLExpr, pos map[string]int, schema data.Schema) (sqlengine.SQLExpr, error) {
	var err error
	out := sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
		if f, ok := asFieldRef(x); ok {
			i, found := pos[f]
			if !found {
				err = fmt.Errorf("core: field %s not available below the fused section", f)
				return x
			}
			name := fmt.Sprintf("c%d", i)
			if i < len(schema) {
				name = schema[i].Name
			}
			return &sqlengine.ColRef{Name: name, Index: i}
		}
		return x
	})
	return out, err
}

// emitWrapper lowers the section nodes covering plan indexes [lo..hi]
// to a trace, registers it as a fused wrapper (or reuses one from the
// compile cache) and builds the OpFused/OpFusedAgg plan node.
func (qf *QFusor) emitWrapper(seg *Segment, g *DFG, inSec map[int]bool, lo, hi int) (*fusedResult, error) {
	tr, inputs, err := qf.buildTrace(seg, g, inSec, lo, hi)
	if err != nil {
		return nil, err
	}
	top := seg.Chain[hi]
	node := &sqlengine.Plan{
		Op:      sqlengine.OpFused,
		Schema:  top.Schema,
		Quals:   top.Quals,
		EstRows: top.EstRows,
	}
	outNames := top.Schema.Names()
	outKinds := make([]data.Kind, len(top.Schema))
	for i, f := range top.Schema {
		outKinds[i] = f.Kind
	}
	if top.Op == sqlengine.OpAggregate {
		node.Op = sqlengine.OpFusedAgg
		outNames, outKinds, node.GroupBy, node.Aggs = aggOutputs(top, childSchemaOf(seg, hi))
	}
	u, cached, err := qf.registerWrapper(tr, ffi.Table, nil, outNames, outKinds)
	if err != nil {
		return nil, err
	}
	node.UDF = u
	childSchema := childSchemaOf(seg, lo)
	for _, ci := range inputs {
		name := fmt.Sprintf("c%d", ci)
		if ci < len(childSchema) {
			name = childSchema[ci].Name
		}
		node.TFArgs = append(node.TFArgs, &sqlengine.ColRef{Name: name, Index: ci})
	}
	return &fusedResult{Nodes: []*sqlengine.Plan{node}, Sources: []string{u.Trace().Render(u.Name)},
		SpanLo: lo, SpanHi: hi, Wrapper: u.Name, Cached: cached, Tier: u.Trace().Tier()}, nil
}

// aggOutputs describes the wrapper of a section that ends in the
// aggregate top, whose input schema is in: it yields the group keys,
// then each aggregate's argument (buildTrace lowers them in that order),
// each at the kind the engine's aggregate would compute it at — a UDF
// aggregate's computed argument at the declared parameter kind. It also
// returns the fused node's group-by and aggregates over those columns.
func aggOutputs(top *sqlengine.Plan, in data.Schema) (names []string, kinds []data.Kind, keys []sqlengine.SQLExpr, aggs []sqlengine.AggSpec) {
	out := func(name string, k data.Kind) sqlengine.SQLExpr {
		if k == data.KindNull { // NULL on every row: a string column
			k = data.KindString
		}
		names, kinds = append(names, name), append(kinds, k)
		return &sqlengine.ColRef{Name: name, Index: len(names) - 1}
	}
	for i := range top.GroupBy {
		keys = append(keys, out(top.Schema[i].Name, top.Schema[i].Kind))
	}
	for i, spec := range top.Aggs {
		agg := sqlengine.AggSpec{Name: spec.Name, UDF: spec.UDF, Star: spec.Star}
		if len(spec.Args) > 0 {
			a := spec.Args[0]
			k := sqlengine.ExprKind(a, in)
			if _, isCol := a.(*sqlengine.ColRef); spec.UDF != nil && !isCol {
				k = data.KindString
				if len(spec.UDF.InKinds) > 0 {
					k = spec.UDF.InKinds[0]
				}
			}
			agg.Args = []sqlengine.SQLExpr{out(fmt.Sprintf("__arg%d", i), k)}
		}
		aggs = append(aggs, agg)
	}
	return names, kinds, keys, aggs
}
