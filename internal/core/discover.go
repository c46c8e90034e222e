package core

import (
	"sort"
	"strings"

	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// Section is a set of DFG nodes Algorithm 2 selected for fusion into a
// single wrapper UDF.
type Section struct {
	// Nodes are DFG node IDs in topological order.
	Nodes []int
	// Cost is F(S) under the current cost model.
	Cost float64
	// SingleCost is Σ F({v}) — the unfused alternative.
	SingleCost float64
	// Reordered lists rel nodes inside the section's plan span that were
	// moved OUT by the F3 permutation (executed engine-side below the
	// fused operator).
	Reordered []int
}

// Gain is the estimated saving of fusing this section.
func (s *Section) Gain() float64 { return s.SingleCost - s.Cost }

// DiscoverSections is Algorithm 2: a dynamic program over the DFG in
// topological order that grows fusible sections along dependency edges,
// validates them (closure over their plan span, fusibility of every
// member), permutes reorderable relational operators out (F3), and
// finally selects maximal non-overlapping sections.
func DiscoverSections(g *DFG, cm *CostModel) []*Section {
	n := len(g.Nodes)
	dp := make([]float64, n)
	secs := make([][]int, n)
	reord := make([][]int, n)
	order := g.TopoOrder()

	sumSingles := func(ids []int) float64 {
		s := 0.0
		for _, id := range ids {
			s += cm.Single(g.Nodes[id])
		}
		return s
	}
	for _, v := range order {
		// Initialization/update: the singleton section.
		dp[v] = cm.Single(g.Nodes[v])
		secs[v] = []int{v}
		reord[v] = nil
		bestGain := 0.0
		for _, u := range g.Pred[v] {
			if !fusibleOrReorderable(g.Nodes[u], g.Nodes[v]) {
				continue
			}
			cand := append(append([]int(nil), secs[u]...), v)
			closed, moved, valid := closeSection(g, cand)
			if !valid {
				continue
			}
			cost := g.sectionCost(cm, closed)
			// Compute the potential gain of fusing the closed section
			// versus executing every covered operator in isolation.
			gain := sumSingles(closed) - cost
			if gain > bestGain {
				bestGain = gain
				dp[v] = cost
				secs[v] = closed
				reord[v] = moved
			}
		}
	}

	// Candidate pool: the DP's best section per node, plus per-plan-node
	// groups — independent UDFs in the same projection have no
	// dependency edges between them but still fuse into one loop
	// (sharing input conversion and the trace), as in the paper's Fig. 2.
	var cands []*Section
	addCand := func(nodes, moved []int) {
		if len(nodes) < 2 {
			return
		}
		hasUDF := false
		for _, m := range nodes {
			if g.Nodes[m].Kind.IsUDF() {
				hasUDF = true
				break
			}
		}
		if !hasUDF {
			return
		}
		s := &Section{Nodes: nodes, Cost: g.sectionCost(cm, nodes),
			SingleCost: sumSingles(nodes), Reordered: moved}
		if s.Gain() > 0 || heuristicAccept(g, nodes) {
			cands = append(cands, s)
		}
	}
	for _, v := range order {
		addCand(secs[v], reord[v])
	}
	byPlan := map[int][]int{}
	for id, nd := range g.Nodes {
		if nodeFusible(nd) {
			byPlan[nd.PlanIdx] = append(byPlan[nd.PlanIdx], id)
		}
	}
	for _, ids := range byPlan {
		closed, moved, ok := closeSection(g, ids)
		if ok {
			addCand(closed, moved)
		}
	}

	// Selection: greedy by gain, maximal non-overlapping.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Gain() > cands[b].Gain() })
	visited := make([]bool, n)
	var out []*Section
	for _, s := range cands {
		overlap := false
		for _, m := range s.Nodes {
			if visited[m] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, m := range s.Nodes {
			visited[m] = true
		}
		out = append(out, s)
	}
	// Deterministic order: by first node id.
	sort.Slice(out, func(a, b int) bool { return out[a].Nodes[0] < out[b].Nodes[0] })
	return out
}

// heuristicAccept applies the §5.2.4 cold-start rules when the cost
// model has no learned statistics for any UDF in the candidate section
// (rule-based engines, newly registered UDFs): every fusible section
// with a UDF fuses — its UDF chains, the filters riding along (F3 has
// already moved disjoint ones out) and its group-by, DISTINCT among
// them, whose rows the engine's aggregate folds.
func heuristicAccept(g *DFG, nodes []int) bool {
	anyWarm := false
	udfs := 0
	for _, id := range nodes {
		nd := g.Nodes[id]
		if nd.Kind.IsUDF() {
			udfs++
			if nd.UDF != nil && nd.UDF.Stats.InRows.Load() > 0 {
				anyWarm = true
			}
		}
	}
	return !anyWarm && udfs > 0 // warm statistics: the cost model decides
}

// fusibleOrReorderable implements the fusion-case check of Algorithm 2
// line 9 for an edge u → v.
func fusibleOrReorderable(u, v *DFGNode) bool {
	return nodeFusible(u) && nodeFusible(v)
}

// nodeFusible reports whether a single operator may participate in a
// fused section at all. Fused wrappers never nest in another section.
func nodeFusible(n *DFGNode) bool {
	switch n.Kind {
	case KUDFScalar, KUDFAggregate, KUDFTable:
		return !n.UDF.Fused
	case KRelExpr, KRelFilter:
		return n.Expr == nil || traceable(n.Expr)
	case KRelAggNative:
		switch n.Name {
		case "sum", "count", "min", "max", "avg":
			return n.Expr == nil || traceable(n.Expr)
		}
		return false // blocking aggregates (median) stay engine-side
	case KRelGroupBy:
		return true
	}
	return false
}

// traceable reports whether a trace can compute e: every node one the
// engine evaluates (its builtin scalars included) or a scalar UDF call,
// which becomes a TCall.
func traceable(e sqlengine.SQLExpr) bool {
	ok := true
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		switch f := x.(type) {
		case *sqlengine.FuncExpr:
			if u := f.UDF; u != nil {
				ok = u.Kind == ffi.Scalar && !u.Fused
			} else {
				ok = sqlengine.IsNativeScalar(f.Name)
			}
		case *sqlengine.ColRef, *sqlengine.Lit, *sqlengine.BinExpr,
			*sqlengine.UnaryExpr, *sqlengine.CaseExpr, *sqlengine.BetweenExpr,
			*sqlengine.InExpr, *sqlengine.IsNullExpr, *sqlengine.CastExpr:
			// fine
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// closeSection computes the closure of a candidate section over its
// plan-node span (IsValidSection + OptimPermutation): every operator
// whose plan node lies inside the span must either join the section or
// be reorderable out of it (fields disjoint from every section member —
// the conservative F3 rule). Returns the closed section (topo order),
// the moved-out nodes, and validity.
func closeSection(g *DFG, cand []int) (closed, moved []int, ok bool) {
	inSec := map[int]bool{}
	for _, v := range cand {
		inSec[v] = true
	}
	for changed := true; changed; {
		changed = false
		lo, hi := spanOf(g, inSec)
		for id, nd := range g.Nodes {
			if inSec[id] || nd.PlanIdx < lo || nd.PlanIdx > hi {
				continue
			}
			// Filters whose fields are untouched by the section may be
			// reordered out engine-side (F3); everything else in the
			// span joins the section — independent UDFs in the same
			// projection fuse into the same loop.
			if nd.Kind == KRelFilter && disjointFromSection(g, nd, inSec) {
				continue
			}
			if !nodeFusible(nd) {
				return nil, nil, false
			}
			inSec[id] = true
			changed = true
		}
	}
	lo, hi := spanOf(g, inSec)
	for id, nd := range g.Nodes {
		if inSec[id] || nd.PlanIdx < lo || nd.PlanIdx > hi {
			continue
		}
		moved = append(moved, id)
	}
	for id := range inSec {
		closed = append(closed, id)
	}
	sort.Ints(closed)
	sort.Ints(moved)
	return closed, moved, true
}

func spanOf(g *DFG, inSec map[int]bool) (lo, hi int) {
	lo, hi = 1<<30, -1
	for id := range inSec {
		pi := g.Nodes[id].PlanIdx
		if pi < lo {
			lo = pi
		}
		if pi > hi {
			hi = pi
		}
	}
	return lo, hi
}

// disjointFromSection applies the conservative reorder rule: node nd
// may be reordered around the section only if it reads and writes no
// field any section member reads or writes (Bernstein-safe commuting).
func disjointFromSection(g *DFG, nd *DFGNode, inSec map[int]bool) bool {
	fields := map[string]bool{}
	for _, f := range nd.In {
		fields[f] = true
	}
	for _, f := range nd.Out {
		fields[f] = true
	}
	for id := range inSec {
		m := g.Nodes[id]
		for _, f := range m.In {
			if fields[f] {
				return false
			}
		}
		for _, f := range m.Out {
			if fields[f] {
				return false
			}
		}
	}
	return true
}

// sectionCost evaluates F(S) for a closed section.
func (g *DFG) sectionCost(cm *CostModel, sec []int) float64 {
	inSec := map[int]bool{}
	for _, v := range sec {
		inSec[v] = true
	}
	nodes := make([]*DFGNode, 0, len(sec))
	produced := map[string]bool{}
	for _, v := range sec {
		nodes = append(nodes, g.Nodes[v])
		for _, f := range g.Nodes[v].Out {
			produced[f] = true
		}
	}
	extIn := map[string]bool{}
	for _, v := range sec {
		for _, f := range g.Nodes[v].In {
			if !produced[f] {
				extIn[f] = true
			}
		}
	}
	// External outputs: fields produced in the section and consumed
	// outside it (or by nobody — final results).
	extOut := map[string]bool{}
	for _, v := range sec {
		for _, f := range g.Nodes[v].Out {
			consumedOutside := true
			for _, s := range g.Succ[v] {
				if inSec[s] {
					consumedOutside = false
				} else {
					consumedOutside = true
					break
				}
			}
			if consumedOutside {
				extOut[f] = true
			}
		}
	}
	entryRows := nodes[0].Rows
	sel := 1.0
	for _, n := range nodes {
		if n.Kind == KRelFilter || n.Kind == KUDFTable {
			sel *= n.Sel
		}
	}
	return cm.Fused(nodes, len(extIn), maxInt(1, len(extOut)), entryRows) * selAdjust(sel)
}

// sectionKeyOf labels a section by the UDFs it fuses, sorted and
// joined with "+" ("" when it fuses none). Relational riders are left
// out, so the label is the same whatever filters ride along.
func sectionKeyOf(g *DFG, nodes []int) string {
	var names []string
	for _, id := range nodes {
		nd := g.Nodes[id]
		if nd.Kind.IsUDF() {
			names = append(names, strings.ToLower(nd.Name))
		}
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// selAdjust keeps the fused estimate monotone in output cardinality.
func selAdjust(sel float64) float64 {
	if sel <= 0 || sel > 1 {
		return 1
	}
	return 0.6 + 0.4*sel
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// InspectSection is a diagnostic helper: it closes a candidate node set
// and reports its fused cost versus the sum of unfused singles.
func InspectSection(g *DFG, cm *CostModel, cand []int) (cost, single float64, closed []int, valid bool) {
	closed, _, valid = closeSection(g, cand)
	if !valid {
		return 0, 0, nil, false
	}
	cost = g.sectionCost(cm, closed)
	for _, id := range closed {
		single += cm.Single(g.Nodes[id])
	}
	return cost, single, closed, true
}
