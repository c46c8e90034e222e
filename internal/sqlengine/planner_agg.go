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
			if u := pl.udf(f.Name); u != nil && u.Kind == ffi.Aggregate {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// planAggregate lowers a core with aggregation:
// Aggregate(keys, aggs) → [Filter having] → Project(items) → [dedup].
func (pl *planner) planAggregate(core *SelectCore, items []SelectItem, in *Plan) (*Plan, error) {
	// Bind group-by keys; allow references to select-item aliases. The
	// aggregate's output schema is the keys' kinds, then the aggregates'.
	keys := make([]SQLExpr, len(core.GroupBy))
	aliased := make([]SQLExpr, len(core.GroupBy))
	schema := make(data.Schema, 0, len(keys))
	for i, g := range core.GroupBy {
		aliased[i] = g
		if cr, ok := g.(*ColRef); ok && cr.Table == "" {
			if sub, ok2 := pl.aliasTarget(cr.Name, items); ok2 {
				aliased[i] = sub
			}
		}
		e, k, err := pl.bindExpr(aliased[i], in)
		if err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
		keys[i] = e
		name := fmt.Sprintf("__key%d", i)
		if cr, ok := e.(*ColRef); ok {
			name = cr.Name
		}
		schema = append(schema, data.Field{Name: name, Kind: fieldKind(k)})
	}

	// Collect aggregate calls from items and HAVING, dedup by rendering.
	var aggs []AggSpec
	var aggKinds []data.Kind
	aggIndex := map[string]int{}
	collect := func(e SQLExpr) error {
		var outerErr error
		walkExpr(e, func(x SQLExpr) bool {
			f, ok := x.(*FuncExpr)
			if !ok {
				return true
			}
			var udf *ffi.UDF
			if u := pl.udf(f.Name); u != nil && u.Kind == ffi.Aggregate {
				udf = u
			} else if !IsNativeAggregate(f.Name) {
				return true
			}
			key := f.String()
			if _, dup := aggIndex[key]; dup {
				return false
			}
			bf, k, err := pl.bindExpr(f, in)
			if err != nil {
				outerErr = err
				return false
			}
			aggIndex[key] = len(aggs)
			aggs = append(aggs, AggSpec{Name: strings.ToLower(f.Name), UDF: udf, Star: f.Star, Args: bf.(*FuncExpr).Args})
			aggKinds = append(aggKinds, k)
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

	for i, k := range aggKinds {
		schema = append(schema, data.Field{Name: fmt.Sprintf("__agg%d", i), Kind: fieldKind(k)})
	}
	est := in.EstRows * groupSelectivity
	if len(keys) == 0 {
		est = 1
	}
	agg := &Plan{Op: OpAggregate, Children: []*Plan{in}, Schema: schema,
		Quals: make([]string, len(schema)), GroupBy: keys, Aggs: aggs, EstRows: est}

	// Rewrite items/HAVING over the aggregate output.
	rw := &aggRewriter{in: in, keys: core.GroupBy, aliased: aliased, boundKeys: keys, aggIndex: aggIndex, nKeys: len(keys)}
	var p *Plan = agg
	if core.Having != nil {
		h, err := rw.rewrite(core.Having)
		if err != nil {
			return nil, err
		}
		if h, _, err = pl.bindExpr(h, p); err != nil {
			return nil, err
		}
		p = &Plan{Op: OpFilter, Children: []*Plan{p}, Schema: p.Schema,
			Quals: p.Quals, Exprs: []SQLExpr{h}, EstRows: p.EstRows * filterSelectivity}
	}
	exprs := make([]SQLExpr, len(items))
	outSchema := make(data.Schema, len(items))
	for i, it := range items {
		e, err := rw.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		e, k, err := pl.bindExpr(e, p)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		outSchema[i] = data.Field{Name: itemName(it, i), Kind: fieldKind(k)}
	}
	out := &Plan{Op: OpProject, Children: []*Plan{p}, Schema: outSchema,
		Quals: make([]string, len(outSchema)), Exprs: exprs, EstRows: p.EstRows}
	if pl.aggOut == nil {
		pl.aggOut = map[*Plan]*aggRewriter{}
	}
	pl.aggOut[out] = rw
	if core.Distinct {
		return dedup(out), nil
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
	in        *Plan
	keys      []SQLExpr // unbound originals (for textual matching)
	aliased   []SQLExpr // the same with select-list aliases resolved
	boundKeys []SQLExpr
	aggIndex  map[string]int
	nKeys     int
}

func (rw *aggRewriter) rewrite(e SQLExpr) (SQLExpr, error) {
	// Aggregate call → __aggN reference.
	if f, ok := e.(*FuncExpr); ok {
		if idx, ok := rw.aggIndex[f.String()]; ok {
			return &ColRef{Name: fmt.Sprintf("__agg%d", idx), Index: rw.nKeys + idx}, nil
		}
	}
	// Group key (textual match against either spelled form).
	for i, k := range rw.keys {
		if k.String() == e.String() || rw.aliased[i].String() == e.String() {
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
	var err error
	out := mapChildren(e, func(c SQLExpr) SQLExpr {
		r, cerr := rw.rewrite(c)
		if err == nil {
			err = cerr
		}
		return r
	})
	return out, err
}

func tableOfKey(in *Plan, cr *ColRef) string {
	if cr.Index >= 0 && cr.Index < len(in.Quals) {
		return in.Quals[cr.Index]
	}
	return cr.Table
}
