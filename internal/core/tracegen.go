package core

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// buildTrace compiles a fused section into a native execution trace
// (ffi.Trace): the final JIT tier, where the loop and all glue are
// native and only the UDF bodies themselves execute in the UDF runtime.
// Returns nil when the section's shape needs the PyLite wrapper
// (FROM-position table UDFs).
func (qf *QFusor) buildTrace(seg *Segment, g *DFG, inSec map[int]bool, lo, hi int, inputs []int) (*ffi.Trace, error) {
	if seg.Chain[lo].Op == sqlengine.OpTableFunc {
		return nil, nil
	}
	below := fieldsBelow(g, lo)
	t := &ffi.Trace{NumIn: len(inputs)}
	regOf := map[string]int{}
	for pi, ci := range inputs {
		if ci < len(below) {
			regOf[below[ci]] = pi
		}
	}
	nextReg := len(inputs)
	newReg := func() int {
		r := nextReg
		nextReg++
		return r
	}
	constReg := func(v data.Value) int {
		r := newReg()
		t.Consts = append(t.Consts, v)
		t.ConstRegs = append(t.ConstRegs, r)
		return r
	}

	// exprReg lowers an expression (with fieldRef placeholders) to a
	// register, emitting ops as needed.
	var exprReg func(e sqlengine.SQLExpr) (int, error)
	evalClosure := func(e sqlengine.SQLExpr) (func([]data.Value) (data.Value, error), error) {
		bound, err := qf.rebindToRegs(e, regOf)
		if err != nil {
			return nil, err
		}
		return func(regs []data.Value) (data.Value, error) {
			return sqlengine.EvalPure(bound, regs)
		}, nil
	}
	exprReg = func(e sqlengine.SQLExpr) (int, error) {
		if f, ok := asFieldRef(e); ok {
			r, ok := regOf[f]
			if !ok {
				return 0, fmt.Errorf("core: trace: field %s unavailable", f)
			}
			return r, nil
		}
		if lit, ok := e.(*sqlengine.Lit); ok {
			return constReg(lit.Value), nil
		}
		eval, err := evalClosure(e)
		if err != nil {
			return 0, err
		}
		r := newReg()
		t.Ops = append(t.Ops, ffi.TraceOp{Kind: ffi.TExpr, Dst: r, Eval: eval})
		return r, nil
	}

	emitValue := func(nd *DFGNode) error {
		switch nd.Kind {
		case KUDFScalar:
			call, ok := nd.Expr.(*sqlengine.FuncExpr)
			if !ok {
				return fmt.Errorf("core: trace: scalar UDF node without call expr")
			}
			argRegs := make([]int, len(call.Args))
			for i, a := range call.Args {
				r, err := exprReg(a)
				if err != nil {
					return err
				}
				argRegs[i] = r
			}
			compileUDF(nd.UDF)
			dst := newReg()
			op := ffi.TraceOp{Kind: ffi.TCall, Dst: dst, Args: argRegs, UDF: nd.UDF}
			if nd.UDF.GoFn == nil {
				if fv, ok := nd.UDF.Fn.P.(*pylite.FuncValue); ok {
					op.Compiled = fv.Compiled()
					op.Prog = fv.Bytecode()
				}
			}
			t.Ops = append(t.Ops, op)
			regOf[nd.Out[0]] = dst
		case KRelExpr:
			r, err := exprReg(nd.Expr)
			if err != nil {
				return err
			}
			regOf[nd.Out[0]] = r
		}
		return nil
	}

	top := seg.Chain[hi]
	isAgg := top.Op == sqlengine.OpAggregate
	for pi := lo; pi <= hi; pi++ {
		p := seg.Chain[pi]
		// Value-producing nodes first (ID order = dependency order).
		for id, nd := range g.Nodes {
			if nd.PlanIdx != pi || !inSec[id] {
				continue
			}
			if nd.Kind == KUDFScalar || nd.Kind == KRelExpr {
				if err := emitValue(nd); err != nil {
					return nil, err
				}
			}
		}
		switch p.Op {
		case sqlengine.OpProject:
			// nothing structural
		case sqlengine.OpFilter:
			var fn *DFGNode
			for id, nd := range g.Nodes {
				if nd.PlanIdx == pi && nd.Kind == KRelFilter && inSec[id] {
					fn = nd
					break
				}
			}
			if fn != nil {
				eval, err := evalClosure(fn.Expr)
				if err != nil {
					return nil, err
				}
				t.Ops = append(t.Ops, ffi.TraceOp{Kind: ffi.TFilter, Eval: eval})
			}
		case sqlengine.OpExpand:
			var nd *DFGNode
			for id, m := range g.Nodes {
				if m.PlanIdx == pi && m.Kind == KUDFTable && inSec[id] {
					nd = m
					break
				}
			}
			if nd == nil {
				return nil, fmt.Errorf("core: trace: expand node missing")
			}
			argRegs := make([]int, len(nd.In))
			for i, f := range nd.In {
				r, ok := regOf[f]
				if !ok {
					return nil, fmt.Errorf("core: trace: expand input %s unavailable", f)
				}
				argRegs[i] = r
			}
			dsts := make([]int, len(nd.Out))
			for i, f := range nd.Out {
				d := newReg()
				dsts[i] = d
				regOf[f] = d
			}
			t.Ops = append(t.Ops, ffi.TraceOp{Kind: ffi.TExpand, Args: argRegs, Dsts: dsts, UDF: nd.UDF})
		case sqlengine.OpDistinct:
			regs := make([]int, 0, len(g.PlanFields[pi]))
			for _, f := range g.PlanFields[pi] {
				r, ok := regOf[f]
				if !ok {
					return nil, fmt.Errorf("core: trace: distinct field %s unavailable", f)
				}
				regs = append(regs, r)
			}
			t.DistinctRegs = regs
		case sqlengine.OpAggregate:
			// Group keys resolve against the aggregate's input (plan
			// pi-1): either wrapper inputs or span-computed registers.
			for _, k := range p.GroupBy {
				if cr, ok := k.(*sqlengine.ColRef); ok && cr.Table != fieldTable {
					f := fieldAt(g, pi-1, cr.Index)
					r, found := regOf[f]
					if !found {
						return nil, fmt.Errorf("core: trace: group key field %s unavailable", f)
					}
					t.KeyRegs = append(t.KeyRegs, r)
					continue
				}
				bound, err := qf.rebindPlanExpr(k, g, pi-1, regOf)
				if err != nil {
					return nil, err
				}
				r := newReg()
				t.Ops = append(t.Ops, ffi.TraceOp{Kind: ffi.TExpr, Dst: r,
					Eval: func(regs []data.Value) (data.Value, error) {
						return sqlengine.EvalPure(bound, regs)
					}})
				t.KeyRegs = append(t.KeyRegs, r)
			}
			for id, nd := range g.Nodes {
				if nd.PlanIdx != pi || !inSec[id] {
					continue
				}
				if nd.Kind != KRelAggNative && nd.Kind != KUDFAggregate {
					continue
				}
				spec := ffi.TraceAgg{ArgReg: -1}
				if nd.Expr != nil {
					r, err := exprReg(nd.Expr)
					if err != nil {
						return nil, err
					}
					spec.ArgReg = r
				}
				if nd.Kind == KUDFAggregate {
					spec.Kind = "udf"
					spec.UDF = nd.UDF
				} else {
					spec.Kind = nd.Name
					spec.Star = nd.Expr == nil && nd.Name == "count"
				}
				t.Aggs = append(t.Aggs, spec)
			}
		default:
			return nil, fmt.Errorf("core: trace: unsupported operator %s", p.Op)
		}
	}

	if !isAgg {
		for _, f := range g.PlanFields[hi] {
			r, ok := regOf[f]
			if !ok {
				return nil, fmt.Errorf("core: trace: output field %s unavailable", f)
			}
			t.OutRegs = append(t.OutRegs, r)
		}
	}
	t.NumRegs = nextReg
	return t, nil
}

// rebindPlanExpr rewrites a plan-bound expression (column indexes into
// chain[srcIdx]'s schema) into register-indexed form.
func (qf *QFusor) rebindPlanExpr(e sqlengine.SQLExpr, g *DFG, srcIdx int, regOf map[string]int) (sqlengine.SQLExpr, error) {
	var err error
	out := sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
		cr, ok := x.(*sqlengine.ColRef)
		if !ok || cr.Table == fieldTable {
			return x
		}
		f := fieldAt(g, srcIdx, cr.Index)
		r, found := regOf[f]
		if !found {
			err = fmt.Errorf("core: trace: field %s unavailable", f)
			return x
		}
		cp := *cr
		cp.Index = r
		return &cp
	})
	return out, err
}

// rebindToRegs substitutes field placeholders with register-indexed
// column refs for EvalPure.
func (qf *QFusor) rebindToRegs(e sqlengine.SQLExpr, regOf map[string]int) (sqlengine.SQLExpr, error) {
	var err error
	out := sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
		if f, ok := asFieldRef(x); ok {
			r, found := regOf[f]
			if !found {
				err = fmt.Errorf("core: trace: field %s unavailable", f)
				return x
			}
			return &sqlengine.ColRef{Name: f, Index: r}
		}
		return x
	})
	return out, err
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
