package core

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// fuseScalarChains is expression-level scalar fusion (fusion case F1
// restricted to scalar UDFs — the YeSQL baseline, and QFusor's fallback
// when a section cannot be realized as a plan rewrite): every maximal
// scalar-UDF subtree with at least two UDF calls is replaced by one
// fused scalar wrapper. The plan's shape is untouched.
func (qf *QFusor) fuseScalarChains(seg *Segment, rep *Report) error {
	for _, p := range seg.Chain {
		var childSchema data.Schema
		if len(p.Children) == 1 {
			childSchema = p.Children[0].Schema
		}
		exprLists := [][]sqlengine.SQLExpr{p.Exprs, p.GroupBy, p.TFArgs}
		for _, list := range exprLists {
			for i, e := range list {
				ne, err := qf.fuseExprChains(e, childSchema, rep)
				if err != nil {
					return err
				}
				list[i] = ne
			}
		}
		for ai := range p.Aggs {
			for i, a := range p.Aggs[ai].Args {
				ne, err := qf.fuseExprChains(a, childSchema, rep)
				if err != nil {
					return err
				}
				p.Aggs[ai].Args[i] = ne
			}
		}
	}
	return nil
}

// fuseExprChains rewrites e, replacing fusible scalar-UDF subtrees.
func (qf *QFusor) fuseExprChains(e sqlengine.SQLExpr, childSchema data.Schema, rep *Report) (sqlengine.SQLExpr, error) {
	if e == nil {
		return nil, nil
	}
	// Try the whole subtree when rooted at a UDF call.
	if f, ok := e.(*sqlengine.FuncExpr); ok && scalarUDF(f) != nil && traceable(e) && countUDFCalls(e) >= 2 {
		return qf.emitScalarWrapper(e, childSchema, rep)
	}
	// Otherwise recurse into children.
	var outerErr error
	out := copyExpr(e)
	rewriteChildren(out, func(child sqlengine.SQLExpr) sqlengine.SQLExpr {
		ne, err := qf.fuseExprChains(child, childSchema, rep)
		if err != nil {
			outerErr = err
			return child
		}
		return ne
	})
	return out, outerErr
}

// rewriteChildren applies fn to each direct child expression of e.
func rewriteChildren(e sqlengine.SQLExpr, fn func(sqlengine.SQLExpr) sqlengine.SQLExpr) {
	switch x := e.(type) {
	case *sqlengine.FuncExpr:
		for i, a := range x.Args {
			x.Args[i] = fn(a)
		}
	case *sqlengine.BinExpr:
		x.L = fn(x.L)
		x.R = fn(x.R)
	case *sqlengine.UnaryExpr:
		x.E = fn(x.E)
	case *sqlengine.CaseExpr:
		if x.Operand != nil {
			x.Operand = fn(x.Operand)
		}
		for i := range x.Whens {
			x.Whens[i] = fn(x.Whens[i])
			x.Thens[i] = fn(x.Thens[i])
		}
		if x.Else != nil {
			x.Else = fn(x.Else)
		}
	case *sqlengine.BetweenExpr:
		x.E = fn(x.E)
		x.Lo = fn(x.Lo)
		x.Hi = fn(x.Hi)
	case *sqlengine.InExpr:
		x.E = fn(x.E)
		for i := range x.List {
			x.List[i] = fn(x.List[i])
		}
	case *sqlengine.IsNullExpr:
		x.E = fn(x.E)
	case *sqlengine.CastExpr:
		x.E = fn(x.E)
	}
}

func countUDFCalls(e sqlengine.SQLExpr) int {
	n := 0
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if f, ok := x.(*sqlengine.FuncExpr); ok && f.UDF != nil {
			n++
		}
		return true
	})
	return n
}

// emitScalarWrapper lowers a scalar subtree to a trace with one output
// register — the TF1 wrapper — and returns the call expression that
// replaces the subtree.
func (qf *QFusor) emitScalarWrapper(e sqlengine.SQLExpr, childSchema data.Schema, rep *Report) (sqlengine.SQLExpr, error) {
	// Collect distinct input columns in first-use order.
	var cols []*sqlengine.ColRef
	seen := map[int]int{}
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if cr, ok := x.(*sqlengine.ColRef); ok {
			if _, dup := seen[cr.Index]; !dup {
				seen[cr.Index] = len(cols)
				cols = append(cols, cr)
			}
		}
		return true
	})
	tg := newTraceGen(len(cols), func(cr *sqlengine.ColRef) (int, error) {
		if r, ok := seen[cr.Index]; ok {
			return r, nil
		}
		return 0, fmt.Errorf("core: unseen column %s", cr)
	})
	out, err := tg.lower(e)
	if err != nil {
		return nil, err
	}
	tg.t.OutRegs = []int{out}

	outKind := e.(*sqlengine.FuncExpr).UDF.OutKind()
	inKinds := make([]data.Kind, len(cols))
	for i, cr := range cols {
		inKinds[i] = data.KindString
		if cr.Index >= 0 && cr.Index < len(childSchema) {
			inKinds[i] = childSchema[cr.Index].Kind
		}
	}
	u, cached, err := qf.registerWrapper(tg.t, ffi.Scalar, inKinds, nil, []data.Kind{outKind})
	if err != nil {
		return nil, err
	}
	if cached {
		rep.CacheHits++
	}
	rep.Sections++
	rep.Sources = append(rep.Sources, u.Trace().Render(u.Name))
	rep.Wrappers = append(rep.Wrappers, u.Name)
	rep.Tiers = append(rep.Tiers, u.Trace().Tier())

	args := make([]sqlengine.SQLExpr, len(cols))
	for i, cr := range cols {
		cp := *cr
		args[i] = &cp
	}
	return &sqlengine.FuncExpr{Name: u.Name, Args: args, UDF: u}, nil
}
