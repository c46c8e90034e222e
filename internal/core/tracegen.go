package core

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// traceGen lowers a fused section or a scalar-UDF chain to its
// ffi.Trace — the one form a fused wrapper takes: the loop and all glue
// are native, only the UDF bodies execute in the UDF runtime, and every
// relational operator runs on the engine's own evaluator. Registers
// [0, NumIn) hold the inputs, the rest constants and op results.
type traceGen struct {
	t *ffi.Trace
	// col resolves a column reference — a DFG field placeholder in a
	// section, a child-schema column in a scalar chain — to its register.
	col func(cr *sqlengine.ColRef) (int, error)
}

func newTraceGen(numIn int, col func(*sqlengine.ColRef) (int, error)) *traceGen {
	return &traceGen{t: &ffi.Trace{NumIn: numIn, NumRegs: numIn}, col: col}
}

func (tg *traceGen) reg() int {
	r := tg.t.NumRegs
	tg.t.NumRegs++
	return r
}

// lower is the one expression-to-register routine: a column is its
// register, a literal a constant register, a scalar UDF call a TCall
// over its lowered arguments, and anything else one TExpr that the
// engine's evaluator computes over registers (UDF calls inside it are
// lowered to TCalls first).
func (tg *traceGen) lower(e sqlengine.SQLExpr) (int, error) {
	switch x := e.(type) {
	case *sqlengine.ColRef:
		return tg.col(x)
	case *sqlengine.Lit:
		r := tg.reg()
		tg.t.Consts = append(tg.t.Consts, x.Value)
		tg.t.ConstRegs = append(tg.t.ConstRegs, r)
		return r, nil
	case *sqlengine.FuncExpr:
		if u := scalarUDF(x); u != nil {
			return tg.call(u, x.Args)
		}
	}
	bound, err := tg.operands(copyExpr(e))
	if err != nil {
		return 0, err
	}
	r := tg.reg()
	tg.t.Ops = append(tg.t.Ops, evalOp(ffi.TExpr, r, bound))
	return r, nil
}

// filter lowers a predicate to a TFilter.
func (tg *traceGen) filter(e sqlengine.SQLExpr) error {
	bound, err := tg.operands(copyExpr(e))
	if err != nil {
		return err
	}
	tg.t.Ops = append(tg.t.Ops, evalOp(ffi.TFilter, 0, bound))
	return nil
}

// call lowers a scalar UDF call: its arguments, then a TCall that holds
// the UDF the planner bound (and its compiled body), never a name.
func (tg *traceGen) call(u *ffi.UDF, args []sqlengine.SQLExpr) (int, error) {
	argRegs := make([]int, len(args))
	for i, a := range args {
		r, err := tg.lower(a)
		if err != nil {
			return 0, err
		}
		argRegs[i] = r
	}
	compileUDF(u)
	op := ffi.TraceOp{Kind: ffi.TCall, Dst: tg.reg(), Args: argRegs, UDF: u}
	if u.GoFn == nil {
		if fv, ok := u.Fn.P.(*pylite.FuncValue); ok {
			op.Compiled = fv.Compiled()
		}
	}
	tg.t.Ops = append(tg.t.Ops, op)
	return op.Dst, nil
}

// operands rewrites e in place for EvalPure: columns and scalar UDF
// calls become register references, the calls lowered first.
func (tg *traceGen) operands(e sqlengine.SQLExpr) (sqlengine.SQLExpr, error) {
	switch x := e.(type) {
	case *sqlengine.ColRef:
		r, err := tg.col(x)
		return regRef(r), err
	case *sqlengine.FuncExpr:
		if u := scalarUDF(x); u != nil {
			r, err := tg.call(u, x.Args)
			return regRef(r), err
		}
	}
	var err error
	rewriteChildren(e, func(c sqlengine.SQLExpr) sqlengine.SQLExpr {
		nc, cerr := tg.operands(c)
		if err == nil {
			err = cerr
		}
		return nc
	})
	return e, err
}

// scalarUDF returns the scalar UDF f calls, nil when f is a builtin.
func scalarUDF(f *sqlengine.FuncExpr) *ffi.UDF {
	if f.UDF != nil && f.UDF.Kind == ffi.Scalar {
		return f.UDF
	}
	return nil
}

// regRef names register r for EvalPure (its index) and Render (its name).
func regRef(r int) *sqlengine.ColRef {
	return &sqlengine.ColRef{Name: fmt.Sprintf("r%d", r), Index: r}
}

// evalOp is a TExpr or TFilter computing bound with SQL semantics.
func evalOp(kind ffi.TraceOpKind, dst int, bound sqlengine.SQLExpr) ffi.TraceOp {
	return ffi.TraceOp{Kind: kind, Dst: dst, Text: bound.String(),
		Eval: func(regs []data.Value) (data.Value, error) {
			return sqlengine.EvalPure(bound, regs)
		}}
}

func copyExpr(e sqlengine.SQLExpr) sqlengine.SQLExpr {
	return sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr { return x })
}

// buildTrace lowers a fused section — the section nodes covering plan
// indexes [lo..hi] of seg — to its trace. It returns the child columns
// the trace reads (its inputs, in register order).
func (qf *QFusor) buildTrace(seg *Segment, g *DFG, inSec map[int]bool, lo, hi int) (*ffi.Trace, []int, error) {
	below := fieldsBelow(g, lo)
	inputs := sectionInputs(seg, g, inSec, lo, hi)
	regOf := map[string]int{}
	for r, ci := range inputs {
		regOf[below[ci]] = r
	}
	tg := newTraceGen(len(inputs), func(cr *sqlengine.ColRef) (int, error) {
		if r, ok := regOf[cr.Name]; ok && cr.Table == fieldTable {
			return r, nil
		}
		return 0, fmt.Errorf("core: trace: field %s unavailable", cr.Name)
	})
	t := tg.t
	fieldRegs := func(fields []string) ([]int, error) {
		regs := make([]int, len(fields))
		for i, f := range fields {
			r, err := tg.col(fieldRefExpr(f))
			if err != nil {
				return nil, err
			}
			regs[i] = r
		}
		return regs, nil
	}
	newRegs := func(fields []string) []int {
		regs := make([]int, len(fields))
		for i, f := range fields {
			regs[i] = tg.reg()
			regOf[f] = regs[i]
		}
		return regs
	}

	for pi := lo; pi <= hi; pi++ {
		p := seg.Chain[pi]
		// Value-producing nodes first (ID order = dependency order).
		for id, nd := range g.Nodes {
			if nd.PlanIdx != pi || !inSec[id] {
				continue
			}
			var r int
			var err error
			switch nd.Kind {
			case KUDFScalar:
				call, ok := nd.Expr.(*sqlengine.FuncExpr)
				if !ok {
					return nil, nil, fmt.Errorf("core: trace: scalar UDF node without call expr")
				}
				r, err = tg.call(nd.UDF, call.Args)
			case KRelExpr:
				r, err = tg.lower(nd.Expr)
			default:
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			regOf[nd.Out[0]] = r
		}
		switch p.Op {
		case sqlengine.OpProject:
			// nothing structural
		case sqlengine.OpFilter:
			if fn := sectionNode(g, inSec, pi, KRelFilter); fn != nil {
				if err := tg.filter(fn.Expr); err != nil {
					return nil, nil, err
				}
			}
		case sqlengine.OpTableFunc:
			nd := sectionNode(g, inSec, pi, KUDFTable)
			if pi != lo || nd == nil {
				return nil, nil, fmt.Errorf("core: trace: table UDF not at section bottom")
			}
			for _, a := range p.TFArgs {
				v, err := sqlengine.EvalPure(a, nil)
				if err != nil {
					return nil, nil, err
				}
				t.SourceArgs = append(t.SourceArgs, v)
			}
			t.Source = nd.UDF
			t.SourceDsts = newRegs(nd.Out)
		case sqlengine.OpExpand:
			nd := sectionNode(g, inSec, pi, KUDFTable)
			if nd == nil {
				return nil, nil, fmt.Errorf("core: trace: expand node missing")
			}
			args, err := fieldRegs(nd.In)
			if err != nil {
				return nil, nil, err
			}
			t.Ops = append(t.Ops, ffi.TraceOp{Kind: ffi.TExpand, Args: args, Dsts: newRegs(nd.Out), UDF: nd.UDF})
		case sqlengine.OpAggregate:
			// The trace yields the aggregate's input rows (see
			// aggOutputs): the group keys, which resolve against plan
			// pi-1 (wrapper inputs or span-computed registers), then each
			// aggregate's argument; COUNT(*) has none.
			for _, k := range p.GroupBy {
				r, err := tg.lower(planToFields(k, g, pi-1))
				if err != nil {
					return nil, nil, err
				}
				t.OutRegs = append(t.OutRegs, r)
			}
			for id, nd := range g.Nodes {
				if nd.PlanIdx != pi || !inSec[id] || nd.Expr == nil || (nd.Kind != KRelAggNative && nd.Kind != KUDFAggregate) {
					continue
				}
				r, err := tg.lower(nd.Expr)
				if err != nil {
					return nil, nil, err
				}
				t.OutRegs = append(t.OutRegs, r)
			}
		default:
			return nil, nil, fmt.Errorf("core: trace: unsupported operator %s", p.Op)
		}
	}

	if seg.Chain[hi].Op != sqlengine.OpAggregate {
		regs, err := fieldRegs(g.PlanFields[hi])
		if err != nil {
			return nil, nil, err
		}
		t.OutRegs = regs
	}
	return t, inputs, nil
}

// sectionInputs lists the child columns a section reads, in column
// order: each below-section field that a member node reads (a table UDF
// at the bottom reads them all) or an output passes through.
func sectionInputs(seg *Segment, g *DFG, inSec map[int]bool, lo, hi int) []int {
	below := fieldsBelow(g, lo)
	used := make([]bool, len(below))
	pos := map[string]int{}
	for i, f := range below {
		pos[f] = i
	}
	use := func(f string) {
		if ci, ok := pos[f]; ok {
			used[ci] = true
		}
	}
	for id, nd := range g.Nodes {
		if inSec[id] {
			for _, f := range nd.In {
				use(f)
			}
		}
	}
	if seg.Chain[hi].Op != sqlengine.OpAggregate {
		for _, f := range g.PlanFields[hi] {
			use(f)
		}
	}
	var inputs []int
	for ci, u := range used {
		if u {
			inputs = append(inputs, ci)
		}
	}
	return inputs
}

// sectionNode returns the section node of the given kind at plan pi.
func sectionNode(g *DFG, inSec map[int]bool, pi int, kind OpKind) *DFGNode {
	for id, nd := range g.Nodes {
		if nd.PlanIdx == pi && nd.Kind == kind && inSec[id] {
			return nd
		}
	}
	return nil
}

// planToFields rewrites a plan-bound expression (column indexes into
// chain[srcIdx]'s schema) onto DFG field placeholders.
func planToFields(e sqlengine.SQLExpr, g *DFG, srcIdx int) sqlengine.SQLExpr {
	return sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
		if cr, ok := x.(*sqlengine.ColRef); ok && cr.Table != fieldTable {
			return fieldRefExpr(fieldAt(g, srcIdx, cr.Index))
		}
		return x
	})
}

// compileUDF eagerly compiles a UDF body so trace calls hit the
// compiled tier directly.
func compileUDF(u *ffi.UDF) {
	if u == nil || u.GoFn != nil {
		return
	}
	if fv, ok := u.Fn.P.(*pylite.FuncValue); ok && fv.Compiled() == nil && !fv.Uncompilable() {
		if c, err := pylite.Compile(fv); err == nil {
			fv.SetCompiled(c)
		} else {
			fv.SetCompiled(nil)
		}
	}
}
