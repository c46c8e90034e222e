package core

import (
	"fmt"
	"strings"

	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// OpKind classifies a fine-grained operator in the data-flow graph.
type OpKind int

const (
	// KUDFScalar is one scalar UDF invocation.
	KUDFScalar OpKind = iota
	// KUDFAggregate is a UDF aggregate (init-step-final class).
	KUDFAggregate
	// KUDFTable is a table/expand UDF invocation.
	KUDFTable
	// KRelExpr is a native scalar computation (arithmetic, CASE, ...).
	KRelExpr
	// KRelFilter is a filter predicate.
	KRelFilter
	// KRelAggNative is a native aggregate (sum/count/min/max/...).
	KRelAggNative
	// KRelGroupBy is the grouping operator of an Aggregate node (a
	// DISTINCT or a UNION's dedup is one with no aggregates).
	KRelGroupBy
)

// String names the kind in traces and EXPLAIN-style output.
func (k OpKind) String() string {
	switch k {
	case KUDFScalar:
		return "udf"
	case KUDFAggregate:
		return "udf-agg"
	case KUDFTable:
		return "udf-table"
	case KRelExpr:
		return "rel-expr"
	case KRelFilter:
		return "rel-filter"
	case KRelAggNative:
		return "rel-agg"
	case KRelGroupBy:
		return "rel-groupby"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsUDF reports whether the kind is a UDF operator.
func (k OpKind) IsUDF() bool {
	return k == KUDFScalar || k == KUDFAggregate || k == KUDFTable
}

// DFGNode is one operator with its input/output field sets — the unit
// Algorithms 1 and 2 reason about.
type DFGNode struct {
	ID   int
	Kind OpKind
	Name string
	UDF  *ffi.UDF
	// In and Out are the field names read and written.
	In  []string
	Out []string
	// PlanIdx is the index of the owning plan node within the segment
	// chain (bottom = 0).
	PlanIdx int
	// Expr is the bound expression this node evaluates, when applicable.
	Expr sqlengine.SQLExpr
	// Rows is the estimated input cardinality; Sel the selectivity.
	Rows float64
	Sel  float64
	// Uses counts how many consumers share this node after common-
	// subexpression elimination (the unfused plan evaluates the call
	// once per use; the fused section only once).
	Uses int
	// Blocking marks operators that must materialize their input
	// (median-style aggregates) — loop fusion stops there (Table 2).
	Blocking bool
}

// DFG is the data-flow graph over a segment's operators.
type DFG struct {
	Nodes []*DFGNode
	Succ  [][]int
	Pred  [][]int
	// BaseFields names the segment child's columns; PlanFields[pi] the
	// output fields of chain node pi (used by the code generator to map
	// fields to engine columns).
	BaseFields []string
	PlanFields [][]string
}

// Segment is a maximal chain of streaming unary plan operators —
// the region QFusor considers for fusion in one shot.
type Segment struct {
	// Chain lists the plan nodes bottom-up; Chain[0]'s child (Base) is
	// the fusion boundary (scan, join, sort, ...).
	Chain []*sqlengine.Plan
	Base  *sqlengine.Plan
	// Parent is the plan node above the segment (nil = query root), and
	// ParentSlot its child index pointing at the segment top.
	Parent     *sqlengine.Plan
	ParentSlot int
	// RootIsTop is set when Chain's top is the query root.
	RootIsTop bool
}

// segmentable reports whether a plan node can be part of a fused
// segment.
func segmentable(p *sqlengine.Plan) bool {
	switch p.Op {
	case sqlengine.OpProject, sqlengine.OpFilter, sqlengine.OpExpand,
		sqlengine.OpTableFunc, sqlengine.OpAggregate:
		return len(p.Children) <= 1
	}
	return false
}

// FindSegments collects all fusible segments of a plan tree.
func FindSegments(root *sqlengine.Plan) []*Segment {
	var segs []*Segment
	var walk func(p *sqlengine.Plan, parent *sqlengine.Plan, slot int, isRoot bool)
	walk = func(p *sqlengine.Plan, parent *sqlengine.Plan, slot int, isRoot bool) {
		if segmentable(p) {
			// Collect the maximal chain downward.
			var chain []*sqlengine.Plan
			cur := p
			for segmentable(cur) {
				chain = append(chain, cur)
				if len(cur.Children) == 0 {
					break
				}
				cur = cur.Children[0]
			}
			// chain is top-down; reverse to bottom-up.
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			var base *sqlengine.Plan
			if len(chain[0].Children) > 0 {
				base = chain[0].Children[0]
			}
			segs = append(segs, &Segment{Chain: chain, Base: base,
				Parent: parent, ParentSlot: slot, RootIsTop: isRoot})
			if base != nil {
				walk(base, chain[0], 0, false)
			}
			return
		}
		for i, c := range p.Children {
			walk(c, p, i, false)
		}
	}
	walk(root, nil, 0, true)
	return segs
}

// fieldName builds a stable field identifier for plan node pi, column c.
func fieldName(pi, c int) string { return fmt.Sprintf("p%d.c%d", pi, c) }

// BuildDFG extracts the fine-grained operator nodes of a segment and
// connects them per the Bernstein condition (Algorithm 1).
func BuildDFG(seg *Segment) (*DFG, error) {
	b := &dfgBuilder{}
	// Base fields: the segment child's columns, addressed as p-1.cN.
	var curFields []string
	if seg.Base != nil {
		curFields = make([]string, len(seg.Base.Schema))
		for i := range curFields {
			curFields[i] = fieldName(-1, i)
		}
	}
	base := append([]string(nil), curFields...)
	planFields := make([][]string, len(seg.Chain))
	for pi, p := range seg.Chain {
		next, err := b.addPlanNode(pi, p, curFields)
		if err != nil {
			return nil, err
		}
		curFields = next
		planFields[pi] = append([]string(nil), next...)
	}
	g := &DFG{Nodes: b.nodes, BaseFields: base, PlanFields: planFields}
	g.connect()
	return g, nil
}

type dfgBuilder struct {
	nodes []*DFGNode
	tmpN  int
	// cse memoizes scalar UDF calls on identical inputs within the
	// segment: callKey -> node index. Fusion evaluates the shared call
	// once (the redundant-invocation elimination of §6.4.1).
	cse map[string]int
}

func (b *dfgBuilder) tmp() string {
	b.tmpN++
	return fmt.Sprintf("t%d", b.tmpN)
}

func (b *dfgBuilder) add(n *DFGNode) *DFGNode {
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	return n
}

// addPlanNode decomposes one plan operator into DFG nodes, returning the
// field names of its output columns.
func (b *dfgBuilder) addPlanNode(pi int, p *sqlengine.Plan, in []string) ([]string, error) {
	rows := p.EstRows
	if len(p.Children) == 1 {
		rows = p.Children[0].EstRows
	}
	switch p.Op {
	case sqlengine.OpProject:
		out := make([]string, len(p.Exprs))
		for i, e := range p.Exprs {
			f, err := b.addExpr(pi, e, in, rows)
			if err != nil {
				return nil, err
			}
			out[i] = f
		}
		return out, nil
	case sqlengine.OpFilter:
		// Predicate sub-UDFs become their own nodes; the filter consumes
		// their outputs plus any raw fields.
		inFields, expr, err := b.decomposeUDFCalls(pi, p.Exprs[0], in, rows)
		if err != nil {
			return nil, err
		}
		b.add(&DFGNode{Kind: KRelFilter, Name: "filter", In: inFields,
			Out: append([]string(nil), in...), PlanIdx: pi, Expr: expr,
			Rows: rows, Sel: filterSel(p)})
		return in, nil
	case sqlengine.OpExpand:
		u := p.UDF
		var argFields []string
		for _, a := range p.TFArgs {
			cr, ok := a.(*sqlengine.ColRef)
			if !ok {
				return nil, fmt.Errorf("core: expand arg is not a column")
			}
			argFields = append(argFields, in[cr.Index])
		}
		nKeep := p.ExpandKeep()
		out := make([]string, len(p.Schema))
		copy(out, in[:nKeep])
		var udfOut []string
		for i := nKeep; i < len(p.Schema); i++ {
			f := b.tmp()
			out[i] = f
			udfOut = append(udfOut, f)
		}
		b.add(&DFGNode{Kind: KUDFTable, Name: u.Name, UDF: u, In: argFields,
			Out: udfOut, PlanIdx: pi, Rows: rows, Sel: udfSel(u, 2)})
		return out, nil
	case sqlengine.OpTableFunc:
		u := p.UDF
		out := make([]string, len(p.Schema))
		var udfOut []string
		for i := range p.Schema {
			f := b.tmp()
			out[i] = f
			udfOut = append(udfOut, f)
		}
		b.add(&DFGNode{Kind: KUDFTable, Name: u.Name, UDF: u,
			In: append([]string(nil), in...), Out: udfOut, PlanIdx: pi,
			Rows: rows, Sel: udfSel(u, 1.5)})
		return out, nil
	case sqlengine.OpAggregate:
		// Group keys.
		var keyIn []string
		for _, k := range p.GroupBy {
			fs, _, err := b.decomposeUDFCalls(pi, k, in, rows)
			if err != nil {
				return nil, err
			}
			keyIn = append(keyIn, fs...)
		}
		out := make([]string, 0, len(p.GroupBy)+len(p.Aggs))
		var keyOut []string
		for range p.GroupBy {
			f := b.tmp()
			keyOut = append(keyOut, f)
			out = append(out, f)
		}
		if len(p.GroupBy) > 0 {
			b.add(&DFGNode{Kind: KRelGroupBy, Name: "groupby", In: keyIn,
				Out: keyOut, PlanIdx: pi, Rows: rows, Sel: 0.05})
		}
		for _, spec := range p.Aggs {
			var aggIn []string
			var exprs []sqlengine.SQLExpr
			for _, a := range spec.Args {
				fs, expr, err := b.decomposeUDFCalls(pi, a, in, rows)
				if err != nil {
					return nil, err
				}
				aggIn = append(aggIn, fs...)
				exprs = append(exprs, expr)
			}
			aggIn = append(aggIn, keyOut...) // aggregation depends on grouping
			f := b.tmp()
			out = append(out, f)
			node := &DFGNode{Name: spec.Name, In: aggIn, Out: []string{f},
				PlanIdx: pi, Rows: rows, Sel: 0.05}
			if len(exprs) > 0 {
				node.Expr = exprs[0]
			}
			if spec.UDF != nil {
				node.Kind = KUDFAggregate
				node.UDF = spec.UDF
			} else {
				node.Kind = KRelAggNative
				node.Blocking = spec.Name == "median"
			}
			b.add(node)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unsupported segment operator %s", p.Op)
}

// addExpr decomposes a projection expression: scalar UDF calls become
// DFG nodes; a non-trivial relational remainder becomes a KRelExpr node.
// Returns the field carrying the expression's result.
func (b *dfgBuilder) addExpr(pi int, e sqlengine.SQLExpr, in []string, rows float64) (string, error) {
	// Pure column pass-through: no operator at all.
	if cr, ok := e.(*sqlengine.ColRef); ok {
		if cr.Index < 0 || cr.Index >= len(in) {
			return "", fmt.Errorf("core: unbound column %s", cr)
		}
		return in[cr.Index], nil
	}
	inFields, expr, err := b.decomposeUDFCalls(pi, e, in, rows)
	if err != nil {
		return "", err
	}
	// If the remainder is a bare reference to a UDF output, the UDF node
	// is the producer — no extra rel-expr node.
	if f, ok := asFieldRef(expr); ok {
		_ = inFields
		return f, nil
	}
	out := b.tmp()
	b.add(&DFGNode{Kind: KRelExpr, Name: exprLabel(expr), In: inFields,
		Out: []string{out}, PlanIdx: pi, Expr: expr, Rows: rows, Sel: 1})
	return out, nil
}

// decomposeUDFCalls walks e, replacing every scalar-UDF call subtree
// with a DFG node and a fieldRef placeholder. It returns the fields the
// remainder expression reads plus the rewritten expression.
func (b *dfgBuilder) decomposeUDFCalls(pi int, e sqlengine.SQLExpr, in []string, rows float64) ([]string, sqlengine.SQLExpr, error) {
	fields := map[string]bool{}
	var rewrite func(x sqlengine.SQLExpr) (sqlengine.SQLExpr, error)
	rewrite = func(x sqlengine.SQLExpr) (sqlengine.SQLExpr, error) {
		switch ex := x.(type) {
		case nil:
			return nil, nil
		case *sqlengine.ColRef:
			if ex.Table == fieldTable {
				fields[ex.Name] = true
				return ex, nil
			}
			if ex.Index < 0 || ex.Index >= len(in) {
				return nil, fmt.Errorf("core: unbound column %s", ex)
			}
			f := in[ex.Index]
			fields[f] = true
			return fieldRefExpr(f), nil
		case *sqlengine.FuncExpr:
			if u := scalarUDF(ex); u != nil {
				// Argument subtrees first (producing their own nodes).
				var argFields []string
				var argExprs []sqlengine.SQLExpr
				for _, a := range ex.Args {
					ra, err := rewrite(a)
					if err != nil {
						return nil, err
					}
					argExprs = append(argExprs, ra)
					collectFieldRefs(ra, func(f string) { argFields = append(argFields, f) })
				}
				// Common-subexpression elimination: the same UDF on the
				// same simple inputs shares one node. Sharing is scoped
				// to one plan node — the §6.4.1 case of cleandate invoked
				// three times inside the same aggregate.
				key, canCSE := cseKey(fmt.Sprintf("@%d:%s", pi, u.Name), argExprs)
				if canCSE {
					if b.cse == nil {
						b.cse = map[string]int{}
					}
					if prev, dup := b.cse[key]; dup {
						nd := b.nodes[prev]
						nd.Uses++
						fields[nd.Out[0]] = true
						return fieldRefExpr(nd.Out[0]), nil
					}
				}
				out := b.tmp()
				nd := b.add(&DFGNode{Kind: KUDFScalar, Name: u.Name, UDF: u,
					In: argFields, Out: []string{out}, PlanIdx: pi,
					Expr: &sqlengine.FuncExpr{Name: ex.Name, Args: argExprs, UDF: u},
					Rows: rows, Sel: 1, Uses: 1})
				if canCSE {
					b.cse[key] = nd.ID
				}
				fields[out] = true
				return fieldRefExpr(out), nil
			}
			// Native function: rewrite args in place.
			args := make([]sqlengine.SQLExpr, len(ex.Args))
			for i, a := range ex.Args {
				ra, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				args[i] = ra
			}
			return &sqlengine.FuncExpr{Name: ex.Name, Args: args, Star: ex.Star, UDF: ex.UDF}, nil
		case *sqlengine.Lit:
			return ex, nil
		case *sqlengine.BinExpr:
			l, err := rewrite(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(ex.R)
			if err != nil {
				return nil, err
			}
			return &sqlengine.BinExpr{Op: ex.Op, L: l, R: r}, nil
		case *sqlengine.UnaryExpr:
			s, err := rewrite(ex.E)
			if err != nil {
				return nil, err
			}
			return &sqlengine.UnaryExpr{Op: ex.Op, E: s}, nil
		case *sqlengine.CaseExpr:
			out := &sqlengine.CaseExpr{}
			var err error
			if ex.Operand != nil {
				if out.Operand, err = rewrite(ex.Operand); err != nil {
					return nil, err
				}
			}
			for i := range ex.Whens {
				w, err := rewrite(ex.Whens[i])
				if err != nil {
					return nil, err
				}
				t, err := rewrite(ex.Thens[i])
				if err != nil {
					return nil, err
				}
				out.Whens = append(out.Whens, w)
				out.Thens = append(out.Thens, t)
			}
			if ex.Else != nil {
				if out.Else, err = rewrite(ex.Else); err != nil {
					return nil, err
				}
			}
			return out, nil
		case *sqlengine.BetweenExpr:
			v, err := rewrite(ex.E)
			if err != nil {
				return nil, err
			}
			lo, err := rewrite(ex.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := rewrite(ex.Hi)
			if err != nil {
				return nil, err
			}
			return &sqlengine.BetweenExpr{E: v, Lo: lo, Hi: hi, Not: ex.Not}, nil
		case *sqlengine.InExpr:
			v, err := rewrite(ex.E)
			if err != nil {
				return nil, err
			}
			list := make([]sqlengine.SQLExpr, len(ex.List))
			for i, it := range ex.List {
				ri, err := rewrite(it)
				if err != nil {
					return nil, err
				}
				list[i] = ri
			}
			return &sqlengine.InExpr{E: v, List: list, Not: ex.Not}, nil
		case *sqlengine.IsNullExpr:
			v, err := rewrite(ex.E)
			if err != nil {
				return nil, err
			}
			return &sqlengine.IsNullExpr{E: v, Not: ex.Not}, nil
		case *sqlengine.CastExpr:
			v, err := rewrite(ex.E)
			if err != nil {
				return nil, err
			}
			return &sqlengine.CastExpr{E: v, Kind: ex.Kind}, nil
		}
		return nil, fmt.Errorf("core: cannot decompose %T", x)
	}
	out, err := rewrite(e)
	if err != nil {
		return nil, nil, err
	}
	var fs []string
	for f := range fields {
		fs = append(fs, f)
	}
	// Deterministic order.
	sortStrings(fs)
	return fs, out, nil
}

// fieldTable marks ColRefs that refer to DFG fields rather than plan
// columns (the placeholder the decomposition rewrites UDF subtrees to).
const fieldTable = "__qfield"

// fieldRefExpr builds a DFG-field placeholder expression.
func fieldRefExpr(field string) *sqlengine.ColRef {
	return &sqlengine.ColRef{Table: fieldTable, Name: field, Index: -1}
}

// asFieldRef returns the field name if e is a DFG-field placeholder.
func asFieldRef(e sqlengine.SQLExpr) (string, bool) {
	cr, ok := e.(*sqlengine.ColRef)
	if !ok || cr.Table != fieldTable {
		return "", false
	}
	return cr.Name, true
}

func collectFieldRefs(e sqlengine.SQLExpr, fn func(string)) {
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if f, ok := asFieldRef(x); ok {
			fn(f)
		}
		return true
	})
}

// cseKey canonicalizes a scalar UDF call over simple arguments (field
// references and literals); ok=false when an argument is a computed
// expression (no memoization).
func cseKey(name string, args []sqlengine.SQLExpr) (string, bool) {
	key := name + "("
	for _, a := range args {
		if f, ok := asFieldRef(a); ok {
			key += "f:" + f + ","
			continue
		}
		if lit, ok := a.(*sqlengine.Lit); ok {
			key += "l:" + lit.Value.Repr() + ","
			continue
		}
		return "", false
	}
	return key + ")", true
}

func exprLabel(e sqlengine.SQLExpr) string {
	s := e.String()
	if len(s) > 24 {
		s = s[:24] + "…"
	}
	return s
}

func filterSel(p *sqlengine.Plan) float64 {
	if len(p.Children) == 1 && p.Children[0].EstRows > 0 {
		return p.EstRows / p.Children[0].EstRows
	}
	return 0.33
}

func udfSel(u *ffi.UDF, def float64) float64 {
	if u.Stats.Calls.Load() > 0 {
		return u.Stats.Selectivity()
	}
	return def
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// connect applies Algorithm 1: for every ordered pair (u, v) with
// u.Out ∩ v.In ≠ ∅ (the RAW Bernstein condition), add edge u → v.
func (g *DFG) connect() {
	n := len(g.Nodes)
	g.Succ = make([][]int, n)
	g.Pred = make([][]int, n)
	outSets := make([]map[string]bool, n)
	for i, nd := range g.Nodes {
		outSets[i] = make(map[string]bool, len(nd.Out))
		for _, f := range nd.Out {
			outSets[i][f] = true
		}
	}
	for vi, v := range g.Nodes {
		for ui := range g.Nodes {
			if ui == vi {
				continue
			}
			// Only earlier nodes can produce for later ones (extraction
			// order is a topological order of the plan).
			if ui > vi {
				continue
			}
			dep := false
			for _, f := range v.In {
				if outSets[ui][f] {
					dep = true
					break
				}
			}
			if dep {
				g.Succ[ui] = append(g.Succ[ui], vi)
				g.Pred[vi] = append(g.Pred[vi], ui)
			}
		}
	}
}

// TopoOrder returns node IDs in topological order (extraction order is
// already topological; kept explicit for Algorithm 2's clarity).
func (g *DFG) TopoOrder() []int {
	out := make([]int, len(g.Nodes))
	for i := range out {
		out[i] = i
	}
	return out
}

// String renders the DFG for debugging and the examples.
func (g *DFG) String() string {
	var b strings.Builder
	for i, nd := range g.Nodes {
		fmt.Fprintf(&b, "#%d %s %s in=%v out=%v plan=%d", i, nd.Kind, nd.Name, nd.In, nd.Out, nd.PlanIdx)
		if len(g.Succ[i]) > 0 {
			fmt.Fprintf(&b, " -> %v", g.Succ[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
