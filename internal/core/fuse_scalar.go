package core

import (
	"fmt"
	"strings"

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
	if f, ok := e.(*sqlengine.FuncExpr); ok {
		if u, isUDF := qf.catalog().UDF(f.Name); isUDF && u.Kind == ffi.Scalar {
			if qf.scalarChainEligible(e) && countScalarUDFs(e, qf.catalog()) >= 2 {
				return qf.emitScalarWrapper(e, childSchema, rep)
			}
		}
	}
	// Otherwise recurse into children.
	var outerErr error
	out := sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr { return x })
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

// scalarChainEligible: the subtree contains only scalar UDFs, native
// helpers, literals and column refs.
func (qf *QFusor) scalarChainEligible(e sqlengine.SQLExpr) bool {
	ok := true
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		switch f := x.(type) {
		case *sqlengine.FuncExpr:
			if u, isUDF := qf.catalog().UDF(f.Name); isUDF {
				if u.Kind != ffi.Scalar {
					ok = false
					return false
				}
				return true
			}
			if _, native := nativeHelper[strings.ToLower(f.Name)]; !native {
				ok = false
				return false
			}
		case *sqlengine.ColRef, *sqlengine.Lit, *sqlengine.BinExpr,
			*sqlengine.UnaryExpr, *sqlengine.CaseExpr, *sqlengine.BetweenExpr,
			*sqlengine.InExpr, *sqlengine.IsNullExpr, *sqlengine.CastExpr:
			// fine
		default:
			ok = false
			return false
		}
		return true
	})
	return ok
}

func countScalarUDFs(e sqlengine.SQLExpr, cat *sqlengine.Catalog) int {
	n := 0
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if f, ok := x.(*sqlengine.FuncExpr); ok {
			if _, isUDF := cat.UDF(f.Name); isUDF {
				n++
			}
		}
		return true
	})
	return n
}

// emitScalarWrapper generates the TF1 wrapper for a scalar subtree and
// returns the replacement call expression.
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
	name := qf.nextName()
	pb := &pyBuilder{indent: 2}
	pb.colVar = func(cr *sqlengine.ColRef) (string, error) {
		pi, ok := seen[cr.Index]
		if !ok {
			return "", fmt.Errorf("core: unseen column %s", cr)
		}
		return fmt.Sprintf("__b%d", pi), nil
	}
	expr, err := translateExpr(e, pb)
	if err != nil {
		return nil, err
	}
	var src strings.Builder
	params := make([]string, 0, len(cols)+1)
	for i := range cols {
		params = append(params, fmt.Sprintf("__b%dcol", i))
	}
	params = append(params, "__n")
	fmt.Fprintf(&src, "def %s(%s):\n", name, strings.Join(params, ", "))
	src.WriteString("    __o0 = []\n")
	src.WriteString("    __i = 0\n")
	src.WriteString("    while __i < __n:\n")
	for i := range cols {
		fmt.Fprintf(&src, "        __b%d = __b%dcol[__i]\n", i, i)
	}
	src.WriteString("        __i = __i + 1\n")
	for _, l := range strings.Split(strings.TrimRight(pb.b.String(), "\n"), "\n") {
		if l != "" {
			fmt.Fprintf(&src, "%s\n", l)
		}
	}
	fmt.Fprintf(&src, "        __o0.append(%s)\n", expr)
	src.WriteString("    return [__o0]\n")

	outKind := data.KindString
	if f, ok := e.(*sqlengine.FuncExpr); ok {
		if u, isUDF := qf.catalog().UDF(f.Name); isUDF {
			outKind = u.OutKind()
		}
	}
	inKinds := make([]data.Kind, len(cols))
	for i, cr := range cols {
		inKinds[i] = data.KindString
		if cr.Index >= 0 && cr.Index < len(childSchema) {
			inKinds[i] = childSchema[cr.Index].Kind
		}
	}
	u, cached, err := qf.registerWrapper(name, src.String(), ffi.Scalar, inKinds, []string{name}, []data.Kind{outKind})
	if err != nil {
		return nil, err
	}
	if cached {
		rep.CacheHits++
	}
	// The engine must resolve the wrapper by name during execution.
	qf.catalog().PutUDF(u)
	rep.Sections++
	rep.Sources = append(rep.Sources, src.String())
	rep.Wrappers = append(rep.Wrappers, u.Name)
	// Scalar-chain wrappers have no trace, so they always run closure-tier.
	rep.Tiers = append(rep.Tiers, "closure")

	args := make([]sqlengine.SQLExpr, len(cols))
	for i, cr := range cols {
		cp := *cr
		args[i] = &cp
	}
	// A cache hit returns a previously registered wrapper: the call must
	// use its name, not the freshly allocated one.
	return &sqlengine.FuncExpr{Name: u.Name, Args: args}, nil
}
