package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// PlanOp enumerates logical plan operators.
type PlanOp int

const (
	// OpScan reads a base table (or a materialized CTE).
	OpScan PlanOp = iota
	// OpProject computes output expressions.
	OpProject
	// OpFilter keeps rows matching a predicate.
	OpFilter
	// OpJoin is an inner hash join (equi keys) or nested-loop for
	// general predicates.
	OpJoin
	// OpAggregate groups and folds (native and UDF aggregates).
	OpAggregate
	// OpSort orders rows.
	OpSort
	// OpLimit truncates output.
	OpLimit
	// OpUnion concatenates its inputs (UNION ALL); a UNION is a dedup
	// over it (planner.go dedup).
	OpUnion
	// OpTableFunc invokes a table UDF over its child's rows.
	OpTableFunc
	// OpExpand applies an expand UDF per input row, replicating the
	// remaining columns for each produced row.
	OpExpand
	// OpCTERef reads a materialized common table expression.
	OpCTERef
)

// String returns the operator name used in EXPLAIN output.
func (op PlanOp) String() string {
	switch op {
	case OpScan:
		return "Scan"
	case OpProject:
		return "Project"
	case OpFilter:
		return "Filter"
	case OpJoin:
		return "Join"
	case OpAggregate:
		return "Aggregate"
	case OpSort:
		return "Sort"
	case OpLimit:
		return "Limit"
	case OpUnion:
		return "Union"
	case OpTableFunc:
		return "TableFunc"
	case OpExpand:
		return "Expand"
	case OpCTERef:
		return "CTERef"
	}
	if name, ok := fusedOpNames[op]; ok {
		return name
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// AggSpec is one aggregate computation inside an OpAggregate node.
type AggSpec struct {
	Name string    // count / sum / ... or a UDF aggregate name
	UDF  *ffi.UDF  // nil for native aggregates
	Args []SQLExpr // bound against the aggregate input
	Star bool      // COUNT(*)
}

// Plan is a logical plan node. QFusor's pipeline consumes this tree
// directly (the "propagate the optimizer's plan" step): every operator
// exposes its expressions, schema and row estimates.
type Plan struct {
	Op       PlanOp
	Children []*Plan
	Schema   data.Schema
	// Quals holds the table qualifier of each schema column ("" if
	// unqualified), used for name resolution above joins.
	Quals []string

	// Operator payloads (used per Op):
	Table     string      // Scan / CTERef
	Exprs     []SQLExpr   // Project outputs; Filter predicate at [0]
	GroupBy   []SQLExpr   // Aggregate keys
	Aggs      []AggSpec   // Aggregate functions
	JoinOn    SQLExpr     // Join predicate (nil = cross)
	JoinKind  string      // INNER / LEFT / CROSS
	SortItems []OrderItem // Sort
	LimitN    int64       // Limit
	OffsetN   int64
	UDF       *ffi.UDF  // TableFunc / Expand
	TFArgs    []SQLExpr // extra scalar args of the UDF
	// KeepCols are the input columns this node emits, nil for all of
	// them: the source columns of a Scan or CTERef, or the columns of a
	// join's left ++ right (set by column pruning, prune.go).
	KeepCols []int

	// EstRows is the optimizer's row estimate for this node's output.
	EstRows float64
}

// ExpandKeep is the number of input columns an OpExpand node replicates
// next to its UDF's output: the leading columns of its child, the
// pre-projection, which end where the UDF's arguments begin.
func (p *Plan) ExpandKeep() int { return len(p.Schema) - len(p.UDF.OutKinds) }

// emit returns the columns a Scan, CTERef or join emits from its
// source columns: KeepCols' column headers, shared with the source.
func (p *Plan) emit(src *data.Chunk) *data.Chunk {
	if p.KeepCols == nil {
		return src
	}
	return &data.Chunk{Cols: choose(src.Cols, p.KeepCols)}
}

// Query is a complete executable query: CTE definitions plus the root.
type Query struct {
	CTEs []NamedPlan
	Root *Plan
}

// NamedPlan pairs a CTE name with its plan.
type NamedPlan struct {
	Name string
	Plan *Plan
}

// Explain renders the plan tree in the engine's EXPLAIN format.
func (q *Query) Explain() string {
	var b strings.Builder
	for _, cte := range q.CTEs {
		fmt.Fprintf(&b, "CTE %s:\n", cte.Name)
		explainNode(&b, cte.Plan, 1)
	}
	explainNode(&b, q.Root, 0)
	return b.String()
}

func explainNode(b *strings.Builder, p *Plan, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(p.Op.String())
	switch p.Op {
	case OpScan, OpCTERef:
		fmt.Fprintf(b, " %s", p.Table)
	case OpFilter:
		fmt.Fprintf(b, " (%s)", p.Exprs[0])
	case OpProject:
		parts := make([]string, len(p.Exprs))
		for i, e := range p.Exprs {
			parts[i] = e.String()
			if i < len(p.Schema) && p.Schema[i].Name != "" {
				parts[i] += " AS " + p.Schema[i].Name
			}
		}
		fmt.Fprintf(b, " [%s]", strings.Join(parts, ", "))
	case OpAggregate:
		explainAgg(b, p)
	case OpJoin:
		if p.JoinOn != nil {
			fmt.Fprintf(b, " %s ON %s", p.JoinKind, p.JoinOn)
		} else {
			fmt.Fprintf(b, " %s", p.JoinKind)
		}
	case OpSort:
		parts := make([]string, len(p.SortItems))
		for i, s := range p.SortItems {
			parts[i] = s.Expr.String()
			if s.Desc {
				parts[i] += " DESC"
			}
		}
		fmt.Fprintf(b, " [%s]", strings.Join(parts, ", "))
	case OpLimit:
		fmt.Fprintf(b, " %d", p.LimitN)
	case OpTableFunc, OpExpand, OpFused:
		fmt.Fprintf(b, " %s", p.UDF.Name)
	case OpFusedAgg:
		fmt.Fprintf(b, " %s", p.UDF.Name)
		explainAgg(b, p)
	}
	if p.KeepCols != nil { // the columns pruning kept
		fmt.Fprintf(b, " [%s]", strings.Join(p.Schema.Names(), ", "))
	}
	fmt.Fprintf(b, "  (rows≈%.0f)\n", p.EstRows)
	for _, c := range p.Children {
		explainNode(b, c, depth+1)
	}
}

// explainAgg prints an aggregating node's group keys and aggregates.
func explainAgg(b *strings.Builder, p *Plan) {
	keys := make([]string, len(p.GroupBy))
	for i, e := range p.GroupBy {
		keys[i] = e.String()
	}
	aggs := make([]string, len(p.Aggs))
	for i, a := range p.Aggs {
		args := make([]string, len(a.Args))
		for j, e := range a.Args {
			args[j] = e.String()
		}
		if a.Star {
			aggs[i] = a.Name + "(*)"
		} else {
			aggs[i] = a.Name + "(" + strings.Join(args, ", ") + ")"
		}
	}
	fmt.Fprintf(b, " keys=[%s] aggs=[%s]", strings.Join(keys, ", "), strings.Join(aggs, ", "))
}

// Walk visits the plan tree pre-order.
func (p *Plan) Walk(fn func(*Plan)) {
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// UDFCalls returns the UDFs referenced anywhere in this node's
// expressions (not descending into children), as the planner bound them.
func (p *Plan) UDFCalls() []*ffi.UDF {
	var out []*ffi.UDF
	seen := map[string]bool{}
	collect := func(e SQLExpr) {
		walkExpr(e, func(x SQLExpr) bool {
			if f, ok := x.(*FuncExpr); ok && f.UDF != nil && !seen[f.UDF.Name] {
				seen[f.UDF.Name] = true
				out = append(out, f.UDF)
			}
			return true
		})
	}
	for _, e := range p.Exprs {
		collect(e)
	}
	for _, e := range p.GroupBy {
		collect(e)
	}
	for _, a := range p.Aggs {
		if a.UDF != nil && !seen[a.UDF.Name] {
			seen[a.UDF.Name] = true
			out = append(out, a.UDF)
		}
		for _, e := range a.Args {
			collect(e)
		}
	}
	for _, e := range p.TFArgs {
		collect(e)
	}
	if p.UDF != nil && !seen[p.UDF.Name] {
		out = append(out, p.UDF)
	}
	if p.JoinOn != nil {
		collect(p.JoinOn)
	}
	for _, s := range p.SortItems {
		collect(s.Expr)
	}
	return out
}

// HasUDF reports whether any operator in the tree references a UDF.
func (q *Query) HasUDF() bool {
	found := false
	check := func(p *Plan) {
		if len(p.UDFCalls()) > 0 {
			found = true
		}
	}
	for _, cte := range q.CTEs {
		cte.Plan.Walk(check)
	}
	q.Root.Walk(check)
	return found
}
