package sqlengine

// Optimize applies the engine's four rule-based rewrites in place, in
// this order:
//
//  1. equi-join extraction: Filter over a cross Join moves equality
//     conjuncts into the join condition (enabling the hash join);
//  2. filter pushdown through Project (substituting projected
//     expressions) and into Join sides;
//  3. required-column pruning (prune.go): every node emits only the
//     columns its parent reads, and a projection drops its dead outputs
//     that call no function;
//  4. row-estimate recomputation.
//
// QFusor's fusion optimizer runs after this, on the optimized plan —
// exactly the paper's "probe the optimizer with EXPLAIN" flow.
func Optimize(q *Query, cat *Catalog) {
	for i := range q.CTEs {
		q.CTEs[i].Plan = optimizeNode(q.CTEs[i].Plan)
	}
	q.Root = optimizeNode(q.Root)
	pruneColumns(q)
	for _, cte := range q.CTEs {
		recomputeEstimates(cte.Plan, cat)
	}
	recomputeEstimates(q.Root, cat)
}

func optimizeNode(p *Plan) *Plan {
	for i, c := range p.Children {
		p.Children[i] = optimizeNode(c)
	}
	if p.Op == OpFilter {
		p = extractJoinKeys(p)
		if p.Op == OpFilter {
			p = pushFilterDown(p)
		}
	}
	return p
}

// extractJoinKeys moves equality conjuncts of a filter into the join
// condition of a cross join beneath it.
func extractJoinKeys(f *Plan) *Plan {
	j := f.Children[0]
	if j.Op != OpJoin || j.JoinKind != "CROSS" {
		return f
	}
	nl := len(j.Children[0].Schema)
	var keep, join []SQLExpr
	for _, c := range conjuncts(f.Exprs[0]) {
		if b, ok := c.(*BinExpr); ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok && ((lc.Index < nl) != (rc.Index < nl)) {
				join = append(join, c)
				continue
			}
		}
		keep = append(keep, c)
	}
	if len(join) == 0 {
		return f
	}
	j.JoinKind = "INNER"
	j.JoinOn = andAll(join)
	if len(keep) == 0 {
		return j
	}
	f.Exprs[0] = andAll(keep)
	return f
}

// conjuncts splits an AND tree into its leaves.
func conjuncts(e SQLExpr) []SQLExpr {
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []SQLExpr{e}
}

func andAll(es []SQLExpr) SQLExpr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinExpr{Op: "AND", L: out, R: e}
	}
	return out
}

// pushFilterDown pushes a filter through Project nodes (substituting
// projected expressions for output references) and into join inputs.
// Predicates containing UDF calls are NOT pushed below a Project that
// computes their inputs via UDFs — that decision belongs to QFusor's
// fusion optimizer, which sees UDFs as first-class operators.
func pushFilterDown(f *Plan) *Plan {
	child := f.Children[0]
	switch child.Op {
	case OpProject:
		if len(child.Children) == 0 {
			return f
		}
		pred := f.Exprs[0]
		sub, ok := substituteThroughProject(pred, child)
		if !ok {
			return f
		}
		// Don't reorder a predicate below a UDF-computing projection if
		// the substituted predicate would re-evaluate a UDF.
		if exprHasUDF(sub) && !exprHasUDF(pred) {
			return f
		}
		newFilter := &Plan{Op: OpFilter, Children: []*Plan{child.Children[0]},
			Schema: child.Children[0].Schema, Quals: child.Children[0].Quals,
			Exprs: []SQLExpr{sub}}
		newFilter = pushFilterDown(newFilter)
		child.Children[0] = newFilter
		return child
	case OpFilter:
		// Merge adjacent filters.
		child.Exprs[0] = &BinExpr{Op: "AND", L: child.Exprs[0], R: f.Exprs[0]}
		return child
	case OpJoin:
		nl := len(child.Children[0].Schema)
		var keep []SQLExpr
		for _, c := range conjuncts(f.Exprs[0]) {
			side, onlyOne := sideOf(c, nl)
			if !onlyOne {
				keep = append(keep, c)
				continue
			}
			if side == 0 {
				child.Children[0] = wrapFilter(child.Children[0], c)
			} else {
				if child.JoinKind == "LEFT" {
					keep = append(keep, c)
					continue
				}
				shifted := shiftCols(c, -nl)
				child.Children[1] = wrapFilter(child.Children[1], shifted)
			}
		}
		if len(keep) == 0 {
			return child
		}
		f.Exprs[0] = andAll(keep)
		return f
	}
	return f
}

func wrapFilter(p *Plan, pred SQLExpr) *Plan {
	return &Plan{Op: OpFilter, Children: []*Plan{p}, Schema: p.Schema,
		Quals: p.Quals, Exprs: []SQLExpr{pred}}
}

// sideOf reports which join side a predicate references: 0 left, 1
// right; onlyOne=false when it spans both (or references nothing).
func sideOf(e SQLExpr, nl int) (side int, onlyOne bool) {
	left, right := false, false
	walkExpr(e, func(x SQLExpr) bool {
		if cr, ok := x.(*ColRef); ok {
			if cr.Index < nl {
				left = true
			} else {
				right = true
			}
		}
		return true
	})
	switch {
	case left && !right:
		return 0, true
	case right && !left:
		return 1, true
	default:
		return 0, false
	}
}

// shiftCols rebinds column indexes by delta (for pushing into the right
// join input).
func shiftCols(e SQLExpr, delta int) SQLExpr {
	return RewriteExpr(e, func(x SQLExpr) SQLExpr {
		if cr, ok := x.(*ColRef); ok {
			cr.Index += delta
		}
		return x
	})
}

// substituteThroughProject rewrites a predicate over a Project's output
// into one over its input, if every referenced output is expressible.
func substituteThroughProject(pred SQLExpr, proj *Plan) (SQLExpr, bool) {
	ok := true
	out := RewriteExpr(pred, func(e SQLExpr) SQLExpr {
		cr, isRef := e.(*ColRef)
		if !isRef {
			return e
		}
		if cr.Index < 0 || cr.Index >= len(proj.Exprs) {
			ok = false
			return e
		}
		return RewriteExpr(proj.Exprs[cr.Index], func(x SQLExpr) SQLExpr { return x })
	})
	return out, ok
}

// exprHasUDF reports whether e calls any UDF.
func exprHasUDF(e SQLExpr) bool {
	found := false
	walkExpr(e, func(x SQLExpr) bool {
		if f, ok := x.(*FuncExpr); ok && f.UDF != nil {
			found = true
		}
		return !found
	})
	return found
}

// recomputeEstimates refreshes EstRows bottom-up using catalog
// statistics and default selectivities.
func recomputeEstimates(p *Plan, cat *Catalog) {
	for _, c := range p.Children {
		recomputeEstimates(c, cat)
	}
	switch p.Op {
	case OpScan:
		if t, ok := cat.Table(p.Table); ok {
			p.EstRows = float64(t.NumRows())
		}
	case OpCTERef:
		// Keep the planner's estimate.
	case OpFilter:
		p.EstRows = p.Children[0].EstRows * filterSelectivity
	case OpProject:
		if len(p.Children) > 0 {
			p.EstRows = p.Children[0].EstRows
		} else {
			p.EstRows = 1
		}
	case OpJoin:
		l, r := p.Children[0].EstRows, p.Children[1].EstRows
		if p.JoinOn != nil {
			p.EstRows = l * r * joinSelectivity
		} else {
			p.EstRows = l * r
		}
	case OpAggregate:
		if len(p.GroupBy) == 0 {
			p.EstRows = 1
		} else {
			p.EstRows = p.Children[0].EstRows * groupSelectivity
		}
	case OpSort:
		p.EstRows = p.Children[0].EstRows
	case OpLimit:
		p.EstRows = minF(p.Children[0].EstRows, float64(p.LimitN))
	case OpUnion:
		p.EstRows = p.Children[0].EstRows + p.Children[1].EstRows
	case OpTableFunc, OpExpand:
		sel := 1.5
		if p.UDF != nil && p.UDF.Stats.Calls.Load() > 0 {
			sel = p.UDF.Stats.Selectivity()
		}
		p.EstRows = p.Children[0].EstRows * sel
	}
	if p.EstRows < 1 {
		p.EstRows = 1
	}
}
