package core

import (
	"fmt"
	"sort"
	"strings"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// fusedResult is the realization of one fusible section: replacement
// plan nodes (bottom-up, children unwired) plus generated sources.
type fusedResult struct {
	// MovedPreds are filter predicates reordered out of the section
	// (F3), to run engine-side below the fused node. Bound against the
	// child schema.
	MovedPreds []sqlengine.SQLExpr
	// Nodes are the fused plan node(s), bottom-up (two when an
	// aggregate section is split).
	Nodes []*sqlengine.Plan
	// Sources are the generated wrapper sources (for EXPLAIN/examples).
	Sources []string
	// SpanLo/SpanHi is the replaced plan-node range in the segment.
	SpanLo, SpanHi int
	// Wrapper is the registered wrapper's name; Cached reports whether it
	// was reused from the compile cache rather than freshly generated.
	Wrapper string
	Cached  bool
	// Tier is the execution tier the wrapper was planned onto:
	// "vm" (vectorized bytecode VM) or "closure" (compiled trace loop).
	Tier string
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

	if top.Op == sqlengine.OpAggregate && keysHaveUDF(top, qf.catalog()) {
		// Group keys calling UDFs are not resolvable to trace registers;
		// shrink the section below the aggregate (the keys then run
		// through the engine's vectorized UDF path).
		return qf.generateShrunk(seg, g, sec, hi)
	}

	res, err := qf.emitWrapper(seg, g, inSec, lo, hi, nil)
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
func keysHaveUDF(p *sqlengine.Plan, cat *sqlengine.Catalog) bool {
	for _, k := range p.GroupBy {
		if exprCallsUDF(k, cat) {
			return true
		}
	}
	return false
}

func exprCallsUDF(e sqlengine.SQLExpr, cat *sqlengine.Catalog) bool {
	found := false
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if f, ok := x.(*sqlengine.FuncExpr); ok {
			if _, ok := cat.UDF(f.Name); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
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

// ---------------------------------------------------------------------
// Wrapper emission
// ---------------------------------------------------------------------

// wrapperGen holds per-wrapper emission state.
type wrapperGen struct {
	qf  *QFusor
	seg *Segment
	g   *DFG

	below    []string       // fields available from the child
	belowPos map[string]int // field -> child column index
	inputs   []int          // child column indexes used, in param order
	inputOf  map[int]int    // child column index -> param index

	varOf map[string]string // field -> PyLite variable
	body  *pyBuilder        // loop body
	pre   *pyBuilder        // pre-loop (aggregate state setup)
	post  *pyBuilder        // post-loop (aggregate finals)
	vn    int
}

// emitWrapper generates the fused wrapper for section nodes covering
// plan indexes [lo..hi] and builds the OpFused/OpFusedAgg plan node.
func (qf *QFusor) emitWrapper(seg *Segment, g *DFG, inSec map[int]bool, lo, hi int, extraBelow []string) (*fusedResult, error) {
	w := &wrapperGen{
		qf: qf, seg: seg, g: g,
		below:    fieldsBelow(g, lo),
		belowPos: map[string]int{},
		inputOf:  map[int]int{},
		varOf:    map[string]string{},
		body:     &pyBuilder{},
		pre:      &pyBuilder{},
		post:     &pyBuilder{},
	}
	for i, f := range w.below {
		w.belowPos[f] = i
	}
	colVar := func(cr *sqlengine.ColRef) (string, error) {
		if cr.Table == fieldTable {
			return w.fieldVar(cr.Name)
		}
		return "", fmt.Errorf("core: unexpected plan-bound column %s in wrapper emission", cr)
	}
	w.body.colVar = colVar
	w.pre.colVar = colVar
	w.post.colVar = colVar

	top := seg.Chain[hi]
	isAgg := top.Op == sqlengine.OpAggregate
	tableBottom := seg.Chain[lo].Op == sqlengine.OpTableFunc
	if tableBottom {
		// The table UDF consumes the child's entire row set: every child
		// column is a wrapper input, in order.
		for ci := range w.below {
			w.inputs = append(w.inputs, ci)
			w.inputOf[ci] = ci
		}
	}

	// Walk the plan nodes, emitting loop-body code.
	w.body.indent = 1 // inside the row loop
	var aggFinalsOuts []string
	for pi := lo; pi <= hi; pi++ {
		p := seg.Chain[pi]
		switch p.Op {
		case sqlengine.OpProject:
			if err := w.emitValueNodes(pi, inSec); err != nil {
				return nil, err
			}
		case sqlengine.OpFilter:
			if err := w.emitValueNodes(pi, inSec); err != nil {
				return nil, err
			}
			fn := w.findStructural(pi, KRelFilter, inSec)
			if fn != nil {
				pred, err := translateExpr(fn.Expr, w.body)
				if err != nil {
					return nil, err
				}
				w.body.line("if not %s:", pred)
				w.body.indent++
				w.body.line("continue")
				w.body.indent--
			}
		case sqlengine.OpExpand:
			if err := w.emitValueNodes(pi, inSec); err != nil {
				return nil, err
			}
			nd := w.findStructural(pi, KUDFTable, inSec)
			if nd == nil {
				return nil, fmt.Errorf("core: expand node missing from section")
			}
			args := make([]string, 0, len(nd.In))
			for _, f := range nd.In {
				v, err := w.fieldVar(f)
				if err != nil {
					return nil, err
				}
				args = append(args, v)
			}
			ev := w.newVar("__e")
			w.body.line("for %s in %s(%s):", ev, nd.Name, strings.Join(args, ", "))
			w.body.indent++
			if len(nd.Out) == 1 {
				w.varOf[nd.Out[0]] = ev
			} else {
				for i, f := range nd.Out {
					v := w.newVar("__ec")
					w.body.line("%s = %s[%d]", v, ev, i)
					w.varOf[f] = v
				}
			}
		case sqlengine.OpTableFunc:
			if pi != lo {
				return nil, fmt.Errorf("core: table UDF not at section bottom")
			}
			// Handled by the loop opening (see assemble).
			nd := w.findStructural(pi, KUDFTable, inSec)
			if nd == nil {
				return nil, fmt.Errorf("core: table function node missing from section")
			}
			rv := w.newVar("__r")
			if len(nd.Out) == 1 {
				w.varOf[nd.Out[0]] = rv
			} else {
				for i, f := range nd.Out {
					v := w.newVar("__rc")
					w.body.line("%s = %s[%d]", v, rv, i)
					w.varOf[f] = v
				}
			}
		case sqlengine.OpDistinct:
			keys := make([]string, 0, len(g.PlanFields[pi]))
			for _, f := range g.PlanFields[pi] {
				v, err := w.fieldVar(f)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			w.pre.line("__seen%d = set()", pi)
			w.body.line("__k%d = [%s]", pi, strings.Join(keys, ", "))
			w.body.line("if __k%d in __seen%d:", pi, pi)
			w.body.indent++
			w.body.line("continue")
			w.body.indent--
			w.body.line("__seen%d.add(__k%d)", pi, pi)
		case sqlengine.OpAggregate:
			if err := w.emitValueNodes(pi, inSec); err != nil {
				return nil, err
			}
			outs, err := w.emitAggregate(p, pi, inSec)
			if err != nil {
				return nil, err
			}
			aggFinalsOuts = outs
		default:
			return nil, fmt.Errorf("core: cannot fuse plan operator %s", p.Op)
		}
	}

	// Group keys may reference child columns the wrapper body never
	// touched; register them as inputs so the trace can group on them.
	if isAgg {
		var kerr error
		for _, k := range top.GroupBy {
			sqlengine.WalkExpr(k, func(x sqlengine.SQLExpr) bool {
				if cr, ok := x.(*sqlengine.ColRef); ok {
					f := fieldAt(g, hi-1, cr.Index)
					if f != "" {
						if _, have := w.varOf[f]; !have {
							if _, err := w.fieldVar(f); err != nil && kerr == nil {
								kerr = err
							}
						}
					}
				}
				return true
			})
		}
		if kerr != nil {
			return nil, kerr
		}
	}

	// Outputs.
	name := qf.nextName()
	var outAppend []string
	var outFields []string
	if isAgg {
		outFields = aggFinalsOuts // already emitted into post
	} else {
		outFields = g.PlanFields[hi]
		for j, f := range outFields {
			v, err := w.fieldVar(f)
			if err != nil {
				return nil, err
			}
			outAppend = append(outAppend, fmt.Sprintf("__o%d.append(%s)", j, v))
		}
		for _, l := range outAppend {
			w.body.line("%s", l)
		}
	}

	src, err := w.assemble(name, lo, hi, isAgg, tableBottom, len(outFields))
	if err != nil {
		return nil, err
	}

	// Register (or reuse from the wrapper cache).
	outKinds, outNames := w.outTypes(top, isAgg)
	kind := ffi.Table
	if isAgg {
		kind = ffi.Aggregate
	}
	u, cached, err := qf.registerWrapper(name, src, kind, nil, outNames, outKinds)
	if err != nil {
		return nil, err
	}
	if u.Trace() == nil {
		// Compile the wrapper's hot loop to a native trace (the final
		// JIT tier); unsupported shapes keep the PyLite wrapper.
		tr, terr := qf.buildTrace(seg, g, inSec, lo, hi, w.inputs)
		if terr == nil && tr != nil {
			u.SetTrace(tr)
		}
		if isAgg && u.Trace() == nil {
			// Aggregating sections require the traced group-by (the
			// legacy wrapper groups before fused filters).
			if terr == nil {
				terr = fmt.Errorf("core: aggregate section not traceable")
			}
			return nil, terr
		}
	}
	tier := qf.applyTier(u, top.EstRows, len(w.inputs))

	// Plan node.
	node := &sqlengine.Plan{
		Schema:  top.Schema,
		Quals:   top.Quals,
		UDF:     u,
		EstRows: top.EstRows,
	}
	for pi := lo; pi <= hi; pi++ {
		switch seg.Chain[pi].Op {
		case sqlengine.OpDistinct, sqlengine.OpTableFunc:
			// The wrapper carries cross-row state (distinct set) or
			// consumes the whole input stream (FROM-position table UDF).
			node.NoPartition = true
		}
	}
	childSchema := childSchemaOf(seg, lo)
	for _, ci := range w.inputs {
		name := fmt.Sprintf("c%d", ci)
		if ci < len(childSchema) {
			name = childSchema[ci].Name
		}
		node.TFArgs = append(node.TFArgs, &sqlengine.ColRef{Name: name, Index: ci})
	}
	if isAgg {
		node.Op = sqlengine.OpFusedAgg
		keys, err := qf.rebindKeys(top, g, lo, hi)
		if err != nil {
			return nil, err
		}
		node.GroupBy = keys
	} else {
		node.Op = sqlengine.OpFused
	}
	return &fusedResult{Nodes: []*sqlengine.Plan{node}, Sources: []string{src},
		SpanLo: lo, SpanHi: hi, Wrapper: u.Name, Cached: cached, Tier: tier}, nil
}

// applyTier selects the execution tier for a traced wrapper and
// publishes the decision on the UDF (epoch-fenced for free: a UDF
// redefinition produces fresh FuncValues, whose bytecode caches start
// empty, and flushes the wrapper compile cache via syncUDFEpoch).
// Options.Tier "closure" pins the closure tier; "vm" forces the VM
// whenever the trace lowers; ""/"auto" asks the cost model whether the
// per-row boundary saving is positive (it is for any real section, so
// auto takes the VM wherever eligible — ineligible shapes keep the
// closure tier silently). Returns the tier chosen: "vm" or "closure".
func (qf *QFusor) applyTier(u *ffi.UDF, rows float64, extIn int) string {
	if qf.Opts.Tier == "closure" {
		u.SetVMTierOff(true)
		return "closure"
	}
	u.SetVMTierOff(false)
	tr := u.Trace()
	if tr == nil {
		return "closure"
	}
	if vp := u.VMProg(); vp != nil {
		return "vm" // cached wrapper, already lowered
	}
	vp := ffi.CompileTraceVM(tr)
	if vp == nil {
		return "closure"
	}
	if qf.Opts.Tier != "vm" && qf.CM.VMAdvantage(rows, extIn) <= 0 {
		return "closure"
	}
	u.SetVMProg(vp)
	return "vm"
}

// emitValueNodes emits assignments for the section's value-producing
// nodes at plan index pi (UDF calls and relational expressions), in
// dependency (ID) order.
func (w *wrapperGen) emitValueNodes(pi int, inSec map[int]bool) error {
	for id, nd := range w.g.Nodes {
		if nd.PlanIdx != pi || !inSec[id] {
			continue
		}
		switch nd.Kind {
		case KUDFScalar, KRelExpr:
			expr, err := translateExpr(nd.Expr, w.body)
			if err != nil {
				return err
			}
			v := w.newVar("__v")
			w.body.line("%s = %s", v, expr)
			w.varOf[nd.Out[0]] = v
		}
	}
	return nil
}

// findStructural returns the section node of the given kind at plan pi.
func (w *wrapperGen) findStructural(pi int, kind OpKind, inSec map[int]bool) *DFGNode {
	for id, nd := range w.g.Nodes {
		if nd.PlanIdx == pi && nd.Kind == kind && inSec[id] {
			return nd
		}
	}
	return nil
}

// fieldVar returns the PyLite variable holding a field, registering a
// wrapper input when the field comes from below the section.
func (w *wrapperGen) fieldVar(f string) (string, error) {
	if v, ok := w.varOf[f]; ok {
		return v, nil
	}
	ci, ok := w.belowPos[f]
	if !ok {
		return "", fmt.Errorf("core: field %s has no producer in the fused section", f)
	}
	pidx, seen := w.inputOf[ci]
	if !seen {
		pidx = len(w.inputs)
		w.inputs = append(w.inputs, ci)
		w.inputOf[ci] = pidx
	}
	v := fmt.Sprintf("__b%d", pidx)
	w.varOf[f] = v
	return v, nil
}

func (w *wrapperGen) newVar(prefix string) string {
	w.vn++
	return fmt.Sprintf("%s%d", prefix, w.vn)
}

// emitAggregate generates per-group state, steps and finals for the
// aggregate plan node (TF2/TF7 and the native sum/count/min/max/avg
// offloads). Returns the output field list (one per aggregate).
func (w *wrapperGen) emitAggregate(p *sqlengine.Plan, pi int, inSec map[int]bool) ([]string, error) {
	var outs []string
	aggID := 0
	for id, nd := range w.g.Nodes {
		if nd.PlanIdx != pi || !inSec[id] {
			continue
		}
		if nd.Kind != KRelAggNative && nd.Kind != KUDFAggregate {
			continue
		}
		j := aggID
		aggID++
		outs = append(outs, nd.Out[0])

		// Argument expression (computed per row before stepping).
		argVar := ""
		if nd.Expr != nil {
			s, err := translateExpr(nd.Expr, w.body)
			if err != nil {
				return nil, err
			}
			argVar = w.newVar("__a")
			w.body.line("%s = %s", argVar, s)
		}

		switch nd.Kind {
		case KUDFAggregate:
			w.pre.line("__st%d = []", j)
			w.pre.line("__xi%d = 0", j)
			w.pre.line("while __xi%d < __g:", j)
			w.pre.indent++
			w.pre.line("__ag = %s()", nd.UDF.Name)
			w.pre.line("__ag.init()")
			w.pre.line("__st%d.append(__ag)", j)
			w.pre.line("__xi%d = __xi%d + 1", j, j)
			w.pre.indent--
			if argVar == "" {
				argVar = "None"
			}
			w.body.line("__st%d[__gid].step(%s)", j, argVar)
			w.post.line("__o%d.append(__st%d[__gi].final())", j, j)
		case KRelAggNative:
			switch nd.Name {
			case "count":
				w.pre.line("__st%d = [0] * __g", j)
				if argVar == "" { // COUNT(*)
					w.body.line("__st%d[__gid] = __st%d[__gid] + 1", j, j)
				} else {
					w.body.line("if %s is not None:", argVar)
					w.body.indent++
					w.body.line("__st%d[__gid] = __st%d[__gid] + 1", j, j)
					w.body.indent--
				}
				w.post.line("__o%d.append(__st%d[__gi])", j, j)
			case "sum", "avg":
				w.pre.line("__st%d = [None] * __g", j)
				w.pre.line("__ct%d = [0] * __g", j)
				w.body.line("if %s is not None:", argVar)
				w.body.indent++
				w.body.line("__ct%d[__gid] = __ct%d[__gid] + 1", j, j)
				w.body.line("if __st%d[__gid] is None:", j)
				w.body.indent++
				w.body.line("__st%d[__gid] = %s", j, argVar)
				w.body.indent--
				w.body.line("else:")
				w.body.indent++
				w.body.line("__st%d[__gid] = __st%d[__gid] + %s", j, j, argVar)
				w.body.indent--
				w.body.indent--
				if nd.Name == "avg" {
					w.post.line("if __st%d[__gi] is None:", j)
					w.post.indent++
					w.post.line("__o%d.append(None)", j)
					w.post.indent--
					w.post.line("else:")
					w.post.indent++
					w.post.line("__o%d.append(float(__st%d[__gi]) / __ct%d[__gi])", j, j, j)
					w.post.indent--
				} else {
					w.post.line("__o%d.append(__st%d[__gi])", j, j)
				}
			case "min", "max":
				cmp := "<"
				if nd.Name == "max" {
					cmp = ">"
				}
				w.pre.line("__st%d = [None] * __g", j)
				w.body.line("if %s is not None:", argVar)
				w.body.indent++
				w.body.line("if __st%d[__gid] is None or %s %s __st%d[__gid]:", j, argVar, cmp, j)
				w.body.indent++
				w.body.line("__st%d[__gid] = %s", j, argVar)
				w.body.indent--
				w.body.indent--
				w.post.line("__o%d.append(__st%d[__gi])", j, j)
			default:
				return nil, fmt.Errorf("core: cannot offload aggregate %s", nd.Name)
			}
		}
	}
	return outs, nil
}

// assemble composes the final wrapper source.
func (w *wrapperGen) assemble(name string, lo, hi int, isAgg, tableBottom bool, nOuts int) (string, error) {
	var src strings.Builder
	params := make([]string, 0, len(w.inputs)+3)
	for i := range w.inputs {
		params = append(params, fmt.Sprintf("__b%dcol", i))
	}
	if isAgg {
		params = append(params, "__gids", "__g")
	}
	params = append(params, "__n")

	if tableBottom {
		// Input generator feeding the table UDF (the paper's
		// inp_datagen).
		fmt.Fprintf(&src, "def %s_gen(%s):\n", name, strings.Join(params, ", "))
		src.WriteString("    __i = 0\n")
		src.WriteString("    while __i < __n:\n")
		if len(w.inputs) == 1 {
			src.WriteString("        yield __b0col[__i]\n")
		} else {
			cols := make([]string, len(w.inputs))
			for i := range w.inputs {
				cols[i] = fmt.Sprintf("__b%dcol[__i]", i)
			}
			fmt.Fprintf(&src, "        yield [%s]\n", strings.Join(cols, ", "))
		}
		src.WriteString("        __i = __i + 1\n")
		src.WriteString("\n")
	}

	fmt.Fprintf(&src, "def %s(%s):\n", name, strings.Join(params, ", "))
	// Output accumulators.
	for j := 0; j < nOuts; j++ {
		fmt.Fprintf(&src, "    __o%d = []\n", j)
	}
	// Pre-loop (aggregate state, distinct sets).
	for _, l := range strings.Split(strings.TrimRight(w.pre.b.String(), "\n"), "\n") {
		if l != "" {
			fmt.Fprintf(&src, "    %s\n", l)
		}
	}
	// Loop opening.
	if tableBottom {
		tfNode := w.seg.Chain[lo]
		extras := ""
		for _, a := range tfNode.TFArgs {
			if lit, ok := a.(*sqlengine.Lit); ok {
				extras += ", " + pyLit(lit.Value)
			} else {
				return "", fmt.Errorf("core: non-constant table UDF argument")
			}
		}
		rv := "__r1" // the variable bound by OpTableFunc emission
		_ = rv
		fmt.Fprintf(&src, "    for %s in %s(%s_gen(%s)%s):\n",
			w.tableRowVar(lo), tfNode.UDF.Name, name, strings.Join(params, ", "), extras)
	} else {
		src.WriteString("    __i = 0\n")
		src.WriteString("    while __i < __n:\n")
	}
	// Input bindings (plus the engine-provided group id, which must be
	// read before __i advances).
	bind := &strings.Builder{}
	if !tableBottom {
		for i := range w.inputs {
			fmt.Fprintf(bind, "        __b%d = __b%dcol[__i]\n", i, i)
		}
		if isAgg {
			bind.WriteString("        __gid = __gids[__i]\n")
		}
	}
	src.WriteString(bind.String())
	// Body: advance __i FIRST so `continue` (offloaded filters,
	// distinct) cannot skip it.
	if !tableBottom {
		src.WriteString("        __i = __i + 1\n")
	}
	for _, l := range strings.Split(strings.TrimRight(w.body.b.String(), "\n"), "\n") {
		if l != "" {
			fmt.Fprintf(&src, "    %s\n", l)
		}
	}
	if strings.TrimSpace(w.body.b.String()) == "" {
		src.WriteString("        pass\n")
	}
	// Finals.
	if isAgg {
		src.WriteString("    __gi = 0\n")
		src.WriteString("    while __gi < __g:\n")
		for _, l := range strings.Split(strings.TrimRight(w.post.b.String(), "\n"), "\n") {
			if l != "" {
				fmt.Fprintf(&src, "        %s\n", l)
			}
		}
		src.WriteString("        __gi = __gi + 1\n")
	}
	// Return.
	rets := make([]string, nOuts)
	for j := 0; j < nOuts; j++ {
		rets[j] = fmt.Sprintf("__o%d", j)
	}
	fmt.Fprintf(&src, "    return [%s]\n", strings.Join(rets, ", "))
	return src.String(), nil
}

// tableRowVar returns the row variable bound for a bottom table UDF.
func (w *wrapperGen) tableRowVar(lo int) string {
	// OpTableFunc emission registered vars for the UDF's outputs; the
	// first assigned variable is the row variable for single-column
	// outputs. For multi-column outputs, the body indexes __r1.
	for id, nd := range w.g.Nodes {
		_ = id
		if nd.PlanIdx == lo && nd.Kind == KUDFTable {
			if len(nd.Out) == 1 {
				return w.varOf[nd.Out[0]]
			}
			return "__r1"
		}
	}
	return "__r1"
}

// outTypes derives the fused node's output names/kinds.
func (w *wrapperGen) outTypes(top *sqlengine.Plan, isAgg bool) ([]data.Kind, []string) {
	if !isAgg {
		kinds := make([]data.Kind, len(top.Schema))
		names := make([]string, len(top.Schema))
		for i, f := range top.Schema {
			kinds[i] = f.Kind
			names[i] = f.Name
		}
		return kinds, names
	}
	// Aggregating traces output keys + aggregates (the full schema).
	kinds := make([]data.Kind, len(top.Schema))
	names := make([]string, len(top.Schema))
	for i, f := range top.Schema {
		kinds[i] = f.Kind
		names[i] = f.Name
	}
	return kinds, names
}

// rebindKeys maps the aggregate's group keys onto the fused node's
// input (child) columns. hi is the aggregate's plan index.
func (qf *QFusor) rebindKeys(top *sqlengine.Plan, g *DFG, lo, hi int) ([]sqlengine.SQLExpr, error) {
	below := fieldsBelow(g, lo)
	pos := map[string]int{}
	for i, f := range below {
		pos[f] = i
	}
	srcIdx := hi - 1
	var out []sqlengine.SQLExpr
	for _, k := range top.GroupBy {
		var err error
		nk := sqlengine.RewriteExpr(k, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
			cr, ok := x.(*sqlengine.ColRef)
			if !ok || cr.Table == fieldTable {
				return x
			}
			f := fieldAt(g, srcIdx, cr.Index)
			ni, found := pos[f]
			if !found {
				err = fmt.Errorf("core: group key field %s not below fused section", f)
				return x
			}
			cp := *cr
			cp.Index = ni
			return &cp
		})
		if err != nil {
			// Keys computed inside the span: keep the original expression
			// (the compiled trace does the grouping; GroupBy is
			// explain-only for traced aggregates).
			nk = k
		}
		out = append(out, nk)
	}
	return out, nil
}

// sortInts is a tiny helper kept for deterministic section handling.
func sortInts(xs []int) { sort.Ints(xs) }
