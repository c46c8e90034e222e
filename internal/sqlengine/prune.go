package sqlengine

import "slices"

// pruneColumns narrows every node to the columns its parent reads; the
// root and each CTE's root keep all of theirs. Scan and CTERef emit
// their KeepCols, zero-copy; a join gathers only its parent's columns,
// hashing its keys without gathering them; a projection keeps a dead
// output that calls a function: a UDF call counts, and any call can
// raise an error the query must still raise. Column references are
// remapped here, once, so the binder's indexes stay its contract.
func pruneColumns(q *Query) {
	for i := range q.CTEs {
		q.CTEs[i].Plan, _ = prune(q.CTEs[i].Plan, all(len(q.CTEs[i].Plan.Schema)))
	}
	q.Root, _ = prune(q.Root, all(len(q.Root.Schema)))
}

// prune returns p narrowed to the output columns need marks (it may keep
// more) and, for each old output column, its new position or -1. Nodes
// are copied, not mutated: a nested WITH's body is shared by its
// references, and each reference may need different columns.
func prune(p *Plan, need []bool) (*Plan, []int) {
	cp := *p
	p = &cp
	p.Children = slices.Clone(p.Children)
	switch p.Op {
	case OpScan, OpCTERef:
		keep := atLeastOne(need)
		if len(keep) == len(need) {
			return p, identity(len(need))
		}
		p.KeepCols = keep
		p.Schema, p.Quals = choose(p.Schema, keep), choose(p.Quals, keep)
		return p, positions(keep, len(need))
	case OpFilter, OpSort, OpLimit:
		remap := pruneInputs(p, slices.Clone(need))
		p.Schema, p.Quals = p.Children[0].Schema, p.Children[0].Quals
		return p, remap
	case OpAggregate:
		pruneInputs(p, make([]bool, len(p.Children[0].Schema)))
		return p, identity(len(p.Schema))
	case OpProject:
		if len(p.Children) == 0 {
			return p, identity(len(p.Schema))
		}
		live := slices.Clone(need)
		for i, e := range p.Exprs {
			walkExpr(e, func(x SQLExpr) bool {
				_, call := x.(*FuncExpr) // a UDF, or a builtin that can fail
				live[i] = live[i] || call
				return !live[i]
			})
		}
		keep := atLeastOne(live)
		p.Exprs, p.Schema, p.Quals = choose(p.Exprs, keep), choose(p.Schema, keep), choose(p.Quals, keep)
		pruneInputs(p, make([]bool, len(p.Children[0].Schema)))
		return p, positions(keep, len(need))
	case OpJoin:
		// Each side keeps what the parent reads of it plus what the ON
		// condition reads; the output is KeepCols over left ++ right.
		keep := atLeastOne(need)
		in := make([]bool, len(need))
		for _, o := range keep {
			in[o] = true
		}
		p.KeepCols = choose(pruneInputs(p, in), keep)
		if len(keep) == len(p.Children[0].Schema)+len(p.Children[1].Schema) {
			p.KeepCols = nil // every input column, in order
		}
		p.Schema, p.Quals = choose(p.Schema, keep), choose(p.Quals, keep)
		return p, positions(keep, len(need))
	}
	// Union, TableFunc, Expand and fused nodes read every
	// column of their children.
	n := 0
	for _, c := range p.Children {
		n += len(c.Schema)
	}
	pruneInputs(p, all(n))
	return p, identity(len(p.Schema))
}

// pruneInputs narrows p's children to the columns in marks (over their
// concatenated schemas) plus those p's expressions read, points the
// expressions at the columns' new places, and returns the remap of the
// concatenation.
func pruneInputs(p *Plan, in []bool) []int {
	exprs := ownExprs(p)
	for _, e := range exprs {
		walkExpr(*e, func(x SQLExpr) bool {
			if cr, ok := x.(*ColRef); ok && cr.Index >= 0 && cr.Index < len(in) {
				in[cr.Index] = true
			}
			return true
		})
	}
	remap := make([]int, 0, len(in))
	at, width := 0, 0
	for i, c := range p.Children {
		var m []int
		p.Children[i], m = prune(c, in[at:at+len(c.Schema)])
		for _, r := range m {
			if r >= 0 {
				r += width
			}
			remap = append(remap, r)
		}
		at, width = at+len(c.Schema), width+len(p.Children[i].Schema)
	}
	for _, e := range exprs {
		*e = RewriteExpr(*e, func(x SQLExpr) SQLExpr {
			if cr, ok := x.(*ColRef); ok && cr.Index >= 0 && cr.Index < len(remap) {
				cr.Index = remap[cr.Index]
			}
			return x
		})
	}
	return remap
}

// ownExprs gives p its own copies of the slices that hold the
// expressions it evaluates over its input, and returns their addresses.
func ownExprs(p *Plan) []*SQLExpr {
	var out []*SQLExpr
	add := func(es []SQLExpr) []SQLExpr {
		es = slices.Clone(es)
		for i := range es {
			out = append(out, &es[i])
		}
		return es
	}
	p.Exprs, p.GroupBy = add(p.Exprs), add(p.GroupBy)
	p.SortItems, p.Aggs = slices.Clone(p.SortItems), slices.Clone(p.Aggs)
	for i := range p.SortItems {
		out = append(out, &p.SortItems[i].Expr)
	}
	for i := range p.Aggs {
		p.Aggs[i].Args = add(p.Aggs[i].Args)
	}
	if p.JoinOn != nil {
		out = append(out, &p.JoinOn)
	}
	return out
}

// atLeastOne lists the marked indexes, or just 0 when none is: an
// operator's output needs a column to carry its row count.
func atLeastOne(marked []bool) []int {
	var keep []int
	for i, m := range marked {
		if m {
			keep = append(keep, i)
		}
	}
	if keep == nil && len(marked) > 0 {
		keep = []int{0}
	}
	return keep
}

// positions inverts a kept-index list over n columns: old index to new
// position, -1 for a dropped column.
func positions(keep []int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for at, i := range keep {
		out[i] = at
	}
	return out
}

// all marks each of n columns.
func all(n int) []bool { return slices.Repeat([]bool{true}, n) }

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func choose[T any](xs []T, idx []int) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(idx))
	for i, x := range idx {
		out[i] = xs[x]
	}
	return out
}
