package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// containsAggregate reports whether e calls a native or UDF aggregate.
func (pl *planner) containsAggregate(e SQLExpr) bool {
	found := false
	walkExpr(e, func(x SQLExpr) bool {
		if f, ok := x.(*FuncExpr); ok {
			if IsNativeAggregate(f.Name) {
				found = true
				return false
			}
			if u, ok := pl.cat.UDF(f.Name); ok && u.Kind == ffi.Aggregate {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// planAggregate lowers a core with aggregation:
// Aggregate(keys, aggs) → [Filter having] → Project(items) → [Distinct].
func (pl *planner) planAggregate(core *SelectCore, items []SelectItem, in *Plan) (*Plan, error) {
	// Bind group-by keys; allow references to select-item aliases.
	keys := make([]SQLExpr, len(core.GroupBy))
	for i, g := range core.GroupBy {
		e := cloneExpr(g)
		if cr, ok := e.(*ColRef); ok && cr.Table == "" {
			if sub, ok2 := pl.aliasTarget(cr.Name, items); ok2 {
				e = cloneExpr(sub)
			}
		}
		if err := pl.bindExpr(e, in); err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
		keys[i] = e
	}

	// Collect aggregate calls from items and HAVING, dedup by rendering.
	var aggs []AggSpec
	aggIndex := map[string]int{}
	collect := func(e SQLExpr) error {
		var outerErr error
		walkExpr(e, func(x SQLExpr) bool {
			f, ok := x.(*FuncExpr)
			if !ok {
				return true
			}
			var udf *ffi.UDF
			if u, ok := pl.cat.UDF(f.Name); ok && u.Kind == ffi.Aggregate {
				udf = u
			} else if !IsNativeAggregate(f.Name) {
				return true
			}
			key := f.String()
			if _, dup := aggIndex[key]; dup {
				return false
			}
			spec := AggSpec{Name: strings.ToLower(f.Name), UDF: udf, Star: f.Star}
			for _, a := range f.Args {
				b := cloneExpr(a)
				if err := pl.bindExpr(b, in); err != nil {
					outerErr = err
					return false
				}
				spec.Args = append(spec.Args, b)
			}
			aggIndex[key] = len(aggs)
			aggs = append(aggs, spec)
			return false // don't descend into aggregate args again
		})
		return outerErr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if core.Having != nil {
		if err := collect(core.Having); err != nil {
			return nil, err
		}
	}

	// Aggregate output schema: keys then aggs.
	schema := make(data.Schema, 0, len(keys)+len(aggs))
	for i, k := range keys {
		name := fmt.Sprintf("__key%d", i)
		if cr, ok := k.(*ColRef); ok {
			name = cr.Name
		}
		schema = append(schema, data.Field{Name: name, Kind: exprKind(pl.cat, k, in.Schema)})
	}
	for i, a := range aggs {
		schema = append(schema, data.Field{Name: fmt.Sprintf("__agg%d", i), Kind: pl.aggKind(a, in)})
	}
	est := in.EstRows * groupSelectivity
	if len(keys) == 0 {
		est = 1
	}
	agg := &Plan{Op: OpAggregate, Children: []*Plan{in}, Schema: schema,
		Quals: make([]string, len(schema)), GroupBy: keys, Aggs: aggs, EstRows: est}

	// Rewrite items/HAVING over the aggregate output.
	rw := &aggRewriter{pl: pl, in: in, keys: core.GroupBy, boundKeys: keys, aggIndex: aggIndex, nKeys: len(keys)}
	var p *Plan = agg
	if core.Having != nil {
		h, err := rw.rewrite(cloneExpr(core.Having))
		if err != nil {
			return nil, err
		}
		if err := pl.bindExpr(h, p); err != nil {
			return nil, err
		}
		p = &Plan{Op: OpFilter, Children: []*Plan{p}, Schema: p.Schema,
			Quals: p.Quals, Exprs: []SQLExpr{h}, EstRows: p.EstRows * filterSelectivity}
	}
	exprs := make([]SQLExpr, len(items))
	outSchema := make(data.Schema, len(items))
	for i, it := range items {
		e, err := rw.rewrite(cloneExpr(it.Expr))
		if err != nil {
			return nil, err
		}
		if err := pl.bindExpr(e, p); err != nil {
			return nil, err
		}
		exprs[i] = e
		outSchema[i] = data.Field{Name: itemName(it, i), Kind: exprKind(pl.cat, e, p.Schema)}
	}
	out := &Plan{Op: OpProject, Children: []*Plan{p}, Schema: outSchema,
		Quals: make([]string, len(outSchema)), Exprs: exprs, EstRows: p.EstRows}
	if core.Distinct {
		return &Plan{Op: OpDistinct, Children: []*Plan{out}, Schema: out.Schema,
			Quals: out.Quals, EstRows: out.EstRows * distinctSelectivity}, nil
	}
	return out, nil
}

const groupSelectivity = 0.05

// aliasTarget finds the select item whose alias matches name.
func (pl *planner) aliasTarget(name string, items []SelectItem) (SQLExpr, bool) {
	for _, it := range items {
		if strings.EqualFold(it.Alias, name) && it.Expr != nil {
			// Don't resolve a simple self-reference (alias == colref name).
			if cr, ok := it.Expr.(*ColRef); ok && strings.EqualFold(cr.Name, name) {
				return nil, false
			}
			return it.Expr, true
		}
	}
	return nil, false
}

// aggRewriter replaces aggregate calls and group-key expressions in a
// post-aggregation expression with references to the aggregate output.
type aggRewriter struct {
	pl        *planner
	in        *Plan
	keys      []SQLExpr // unbound originals (for textual matching)
	boundKeys []SQLExpr
	aggIndex  map[string]int
	nKeys     int
}

func (rw *aggRewriter) rewrite(e SQLExpr) (SQLExpr, error) {
	if e == nil {
		return nil, nil
	}
	// Aggregate call → __aggN reference.
	if f, ok := e.(*FuncExpr); ok {
		if idx, ok := rw.aggIndex[f.String()]; ok {
			return &ColRef{Name: fmt.Sprintf("__agg%d", idx), Index: rw.nKeys + idx}, nil
		}
	}
	// Group key (textual match against either spelled form).
	for i, k := range rw.keys {
		if k.String() == e.String() || rw.boundKeys[i].String() == e.String() {
			name := fmt.Sprintf("__key%d", i)
			if cr, ok := rw.boundKeys[i].(*ColRef); ok {
				name = cr.Name
			}
			return &ColRef{Name: name, Index: i}, nil
		}
	}
	if cr, ok := e.(*ColRef); ok {
		// Column ref matching a group key by name.
		for i, k := range rw.boundKeys {
			if kc, ok := k.(*ColRef); ok && strings.EqualFold(kc.Name, cr.Name) &&
				(cr.Table == "" || strings.EqualFold(cr.Table, tableOfKey(rw.in, kc))) {
				return &ColRef{Name: kc.Name, Index: i}, nil
			}
		}
		return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or an aggregate", cr)
	}
	// Recurse into children.
	switch x := e.(type) {
	case *Lit:
		return x, nil
	case *BinExpr:
		l, err := rw.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: x.Op, L: l, R: r}, nil
	case *UnaryExpr:
		s, err := rw.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, E: s}, nil
	case *FuncExpr:
		args := make([]SQLExpr, len(x.Args))
		for i, a := range x.Args {
			s, err := rw.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return &FuncExpr{Name: x.Name, Args: args, Star: x.Star}, nil
	case *CaseExpr:
		out := &CaseExpr{}
		var err error
		if x.Operand != nil {
			if out.Operand, err = rw.rewrite(x.Operand); err != nil {
				return nil, err
			}
		}
		for i := range x.Whens {
			w, err := rw.rewrite(x.Whens[i])
			if err != nil {
				return nil, err
			}
			t, err := rw.rewrite(x.Thens[i])
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, w)
			out.Thens = append(out.Thens, t)
		}
		if x.Else != nil {
			if out.Else, err = rw.rewrite(x.Else); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *BetweenExpr:
		e1, err := rw.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := rw.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rw.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: e1, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *InExpr:
		e1, err := rw.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		list := make([]SQLExpr, len(x.List))
		for i, it := range x.List {
			s, err := rw.rewrite(it)
			if err != nil {
				return nil, err
			}
			list[i] = s
		}
		return &InExpr{E: e1, List: list, Not: x.Not}, nil
	case *IsNullExpr:
		s, err := rw.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: s, Not: x.Not}, nil
	case *CastExpr:
		s, err := rw.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &CastExpr{E: s, Kind: x.Kind}, nil
	}
	return e, nil
}

func tableOfKey(in *Plan, cr *ColRef) string {
	if cr.Index >= 0 && cr.Index < len(in.Quals) {
		return in.Quals[cr.Index]
	}
	return cr.Table
}

// aggKind infers the output kind of an aggregate spec.
func (pl *planner) aggKind(a AggSpec, in *Plan) data.Kind {
	if a.UDF != nil {
		return a.UDF.OutKind()
	}
	switch a.Name {
	case "count":
		return data.KindInt
	case "avg", "median":
		return data.KindFloat
	default: // sum, min, max follow the argument
		if len(a.Args) > 0 {
			return exprKind(pl.cat, a.Args[0], in.Schema)
		}
		return data.KindFloat
	}
}
