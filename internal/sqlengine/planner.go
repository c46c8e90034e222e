package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// planner lowers parsed statements to logical plans.
type planner struct {
	cat    *Catalog
	ctes   map[string]*Plan // visible CTEs by lower-case name
	bodies map[string]*Plan // materialized CTEs' plans by lower-case name
	// aggOut maps an aggregate query's output projection to the rewriter
	// its select items went through, so ORDER BY keys go through it too.
	aggOut map[*Plan]*aggRewriter
	// udfs memoizes name resolution (nil: a builtin) for the statement
	// being planned: CTEs, derived tables, aggregates, table functions
	// and expands all see one definition per name.
	udfs map[string]*ffi.UDF
}

// udf resolves a function name to its UDF, nil for a builtin. It is the
// one catalog lookup of a name per statement: the planner stores the
// result on the call (FuncExpr.UDF, Plan.UDF, AggSpec.UDF), and the
// optimizer, QFusor and both evaluators read it from there.
func (pl *planner) udf(name string) *ffi.UDF {
	key := strings.ToLower(name)
	if u, ok := pl.udfs[key]; ok {
		return u
	}
	u, _ := pl.cat.UDF(name)
	if pl.udfs == nil {
		pl.udfs = map[string]*ffi.UDF{}
	}
	pl.udfs[key] = u
	return u
}

// PlanSelect lowers a SelectStmt into an executable Query.
func PlanSelect(cat *Catalog, st *SelectStmt) (*Query, error) {
	pl := &planner{cat: cat, ctes: map[string]*Plan{}, bodies: map[string]*Plan{}}
	q := &Query{}
	for _, cte := range st.CTEs {
		sub, err := pl.planSelectStmt(cte.Query)
		if err != nil {
			return nil, fmt.Errorf("cte %s: %w", cte.Name, err)
		}
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(sub.Schema) {
				return nil, fmt.Errorf("cte %s: %d columns declared, %d produced", cte.Name, len(cte.Columns), len(sub.Schema))
			}
			renamed := make(data.Schema, len(sub.Schema))
			for i, f := range sub.Schema {
				renamed[i] = data.Field{Name: cte.Columns[i], Kind: f.Kind}
			}
			sub = &Plan{Op: OpProject, Children: []*Plan{sub}, Schema: renamed,
				Quals: make([]string, len(renamed)), Exprs: identityExprs(sub.Schema), EstRows: sub.EstRows}
		}
		q.CTEs = append(q.CTEs, NamedPlan{Name: cte.Name, Plan: sub})
		ref := &Plan{Op: OpCTERef, Table: cte.Name, Schema: sub.Schema,
			Quals: qualsFor(cte.Name, len(sub.Schema)), EstRows: sub.EstRows}
		pl.ctes[strings.ToLower(cte.Name)] = ref
		pl.bodies[strings.ToLower(cte.Name)] = sub
	}
	// Plan the body with the CTEs already registered (strip them so the
	// nested-WITH path doesn't re-plan them without the column renames).
	body := *st
	body.CTEs = nil
	root, err := pl.planSelectStmt(&body)
	if err != nil {
		return nil, err
	}
	q.Root = root
	return q, nil
}

func identityExprs(s data.Schema) []SQLExpr {
	out := make([]SQLExpr, len(s))
	for i, f := range s {
		out[i] = &ColRef{Name: f.Name, Index: i}
	}
	return out
}

func qualsFor(q string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = q
	}
	return out
}

// planSelectStmt plans the core chain plus order/limit (without CTE
// registration — PlanSelect handles that at the top level only).
func (pl *planner) planSelectStmt(st *SelectStmt) (*Plan, error) {
	if len(st.CTEs) > 0 {
		// Nested WITH: register the CTEs in this planner's scope.
		for _, cte := range st.CTEs {
			sub, err := pl.planSelectStmt(cte.Query)
			if err != nil {
				return nil, err
			}
			pl.ctes[strings.ToLower(cte.Name)] = &Plan{Op: OpCTERef, Table: cte.Name,
				Schema: sub.Schema, Quals: qualsFor(cte.Name, len(sub.Schema)), EstRows: sub.EstRows}
			// Nested CTEs are inlined (executed per reference).
			pl.ctes[strings.ToLower(cte.Name)] = sub
		}
	}
	p, err := pl.planCore(st.Cores[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(st.Cores); i++ {
		rhs, err := pl.planCore(st.Cores[i])
		if err != nil {
			return nil, err
		}
		if len(rhs.Schema) != len(p.Schema) {
			return nil, fmt.Errorf("sql: UNION arms have different arity (%d vs %d)", len(p.Schema), len(rhs.Schema))
		}
		kinds := make([]data.Kind, len(p.Schema))
		for c := range kinds {
			kinds[c] = fieldKind(joinKind(pl.armKind(p, c), pl.armKind(rhs, c)))
		}
		p, rhs = castArm(p, kinds), castArm(rhs, kinds)
		p = &Plan{Op: OpUnion, Children: []*Plan{p, rhs}, Schema: p.Schema,
			Quals: make([]string, len(p.Schema)), EstRows: p.EstRows + rhs.EstRows}
		if st.UnionOp[i-1] != "UNION ALL" {
			p = dedup(p)
		}
	}
	if len(st.OrderBy) > 0 {
		items := make([]OrderItem, len(st.OrderBy))
		hidden := 0
		origN := len(p.Schema)
		for i, o := range st.OrderBy {
			if lit, ok := o.Expr.(*Lit); ok && lit.Value.Kind == data.KindInt {
				pos := lit.Value.I
				if pos < 1 || pos > int64(origN) {
					return nil, bindErrorf("ORDER BY position %d is not in the select list (1..%d)", pos, origN)
				}
				items[i] = OrderItem{Expr: &ColRef{Index: int(pos) - 1, Name: p.Schema[pos-1].Name}, Desc: o.Desc}
				continue
			}
			e, _, err := pl.bindExpr(o.Expr, p)
			if err != nil {
				// Sort key not in the select list: compute it as a hidden
				// column through the projection, sort, then drop it.
				if p.Op != OpProject || len(p.Children) != 1 {
					return nil, err
				}
				// An aggregate query's key reads the aggregate's output,
				// as its select items do.
				key := o.Expr
				if rw, ok := pl.aggOut[p]; ok {
					var rerr error
					if key, rerr = rw.rewrite(key); rerr != nil {
						return nil, rerr
					}
				}
				h, k, err2 := pl.bindExpr(key, p.Children[0])
				if err2 != nil {
					return nil, err
				}
				name := fmt.Sprintf("__ord%d", i)
				p.Exprs = append(p.Exprs, h)
				p.Schema = append(p.Schema, data.Field{Name: name, Kind: fieldKind(k)})
				p.Quals = append(p.Quals, "")
				e = &ColRef{Name: name, Index: len(p.Schema) - 1}
				hidden++
			}
			items[i] = OrderItem{Expr: e, Desc: o.Desc}
		}
		p = &Plan{Op: OpSort, Children: []*Plan{p}, Schema: p.Schema,
			Quals: p.Quals, SortItems: items, EstRows: p.EstRows}
		if hidden > 0 {
			p = &Plan{Op: OpProject, Children: []*Plan{p}, Schema: p.Schema[:origN],
				Quals: p.Quals[:origN], Exprs: identityExprs(p.Schema[:origN]),
				EstRows: p.EstRows}
		}
	}
	if st.Limit >= 0 {
		p = &Plan{Op: OpLimit, Children: []*Plan{p}, Schema: p.Schema,
			Quals: p.Quals, LimitN: st.Limit, OffsetN: st.Offset,
			EstRows: minF(p.EstRows, float64(st.Limit))}
	}
	return p, nil
}

// armKind is the kind column c of a UNION arm brings to the join:
// KindNull when the arm computes NULL on every row of it.
func (pl *planner) armKind(arm *Plan, c int) data.Kind {
	if pl.allNull(arm, c) {
		return data.KindNull
	}
	return arm.Schema[c].Kind
}

// castArm returns a UNION arm whose columns have the given kinds: the arm
// itself, or a projection casting the columns whose kind differs.
func castArm(arm *Plan, kinds []data.Kind) *Plan {
	schema := append(data.Schema(nil), arm.Schema...)
	exprs := identityExprs(arm.Schema)
	cast := false
	for c, k := range kinds {
		if schema[c].Kind != k {
			schema[c].Kind, exprs[c], cast = k, &CastExpr{E: exprs[c], Kind: k}, true
		}
	}
	if !cast {
		return arm
	}
	return &Plan{Op: OpProject, Children: []*Plan{arm}, Schema: schema,
		Quals: arm.Quals, Exprs: exprs, EstRows: arm.EstRows}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// planCore lowers one SELECT core:
// FROM → WHERE → Expand(select-list table UDFs) → Aggregate → HAVING →
// Project → DISTINCT.
func (pl *planner) planCore(core *SelectCore) (*Plan, error) {
	in, err := pl.planFrom(core)
	if err != nil {
		return nil, err
	}
	if core.Where != nil {
		pred, _, err := pl.bindExpr(core.Where, in)
		if err != nil {
			return nil, err
		}
		in = &Plan{Op: OpFilter, Children: []*Plan{in}, Schema: in.Schema,
			Quals: in.Quals, Exprs: []SQLExpr{pred}, EstRows: in.EstRows * filterSelectivity}
	}

	items, err := pl.expandStars(core.Items, in)
	if err != nil {
		return nil, err
	}

	// Pull select-list table/expand UDFs into an Expand node.
	in, items, err = pl.planExpand(items, in)
	if err != nil {
		return nil, err
	}

	// Aggregation.
	hasAgg := false
	for _, it := range items {
		if pl.containsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if core.Having != nil && pl.containsAggregate(core.Having) {
		hasAgg = true
	}
	if hasAgg || len(core.GroupBy) > 0 {
		return pl.planAggregate(core, items, in)
	}

	// Plain projection.
	p, err := pl.project(items, in)
	if err != nil {
		return nil, err
	}
	if core.Distinct {
		p = dedup(p)
	}
	return p, nil
}

// dedup plans a DISTINCT, or a UNION's set semantics, over p: a group-by
// on every column of p with no aggregates, which keeps p's names,
// qualifiers and kinds.
func dedup(p *Plan) *Plan {
	return &Plan{Op: OpAggregate, Children: []*Plan{p}, Schema: p.Schema, Quals: p.Quals,
		GroupBy: identityExprs(p.Schema), EstRows: p.EstRows * groupSelectivity}
}

const (
	filterSelectivity = 0.33
	joinSelectivity   = 0.1
)

// planFrom lowers the FROM list and JOIN clauses to a plan.
func (pl *planner) planFrom(core *SelectCore) (*Plan, error) {
	if len(core.From) == 0 {
		// SELECT without FROM: a single dummy row.
		return &Plan{Op: OpProject, Schema: data.Schema{}, EstRows: 1}, nil
	}
	p, err := pl.planFromItem(core.From[0])
	if err != nil {
		return nil, err
	}
	for _, fi := range core.From[1:] {
		rhs, err := pl.planFromItem(fi)
		if err != nil {
			return nil, err
		}
		p = crossJoin(p, rhs)
	}
	for _, jc := range core.Joins {
		rhs, err := pl.planFromItem(jc.Item)
		if err != nil {
			return nil, err
		}
		j := crossJoin(p, rhs)
		j.JoinKind = jc.Kind
		if jc.On != nil {
			on, _, err := pl.bindExpr(jc.On, j)
			if err != nil {
				return nil, err
			}
			j.JoinOn = on
			j.EstRows = (p.EstRows * rhs.EstRows) * joinSelectivity
		}
		p = j
	}
	return p, nil
}

func crossJoin(l, r *Plan) *Plan {
	schema := make(data.Schema, 0, len(l.Schema)+len(r.Schema))
	schema = append(schema, l.Schema...)
	schema = append(schema, r.Schema...)
	quals := make([]string, 0, len(schema))
	quals = append(quals, l.Quals...)
	quals = append(quals, r.Quals...)
	return &Plan{Op: OpJoin, Children: []*Plan{l, r}, Schema: schema,
		Quals: quals, JoinKind: "CROSS", EstRows: l.EstRows * r.EstRows}
}

func (pl *planner) planFromItem(fi FromItem) (*Plan, error) {
	switch {
	case fi.Table != "":
		name := strings.ToLower(fi.Table)
		qual := fi.Alias
		if qual == "" {
			qual = fi.Table
		}
		if cte, ok := pl.ctes[name]; ok {
			cp := *cte
			cp.Quals = qualsFor(qual, len(cte.Schema))
			return &cp, nil
		}
		t, ok := pl.cat.Table(fi.Table)
		if !ok {
			return nil, errNoSuchTable(fi.Table)
		}
		return &Plan{Op: OpScan, Table: t.Name, Schema: t.Schema,
			Quals: qualsFor(qual, len(t.Schema)), EstRows: float64(t.NumRows())}, nil
	case fi.Subquery != nil:
		sub, err := pl.planSelectStmt(fi.Subquery)
		if err != nil {
			return nil, err
		}
		if fi.Alias != "" {
			cp := *sub
			cp.Quals = qualsFor(fi.Alias, len(sub.Schema))
			return &cp, nil
		}
		return sub, nil
	case fi.Func != nil:
		return pl.planTableFunc(fi)
	}
	return nil, fmt.Errorf("sql: empty FROM item")
}

// planTableFunc lowers a table UDF in FROM position.
func (pl *planner) planTableFunc(fi FromItem) (*Plan, error) {
	u := pl.udf(fi.Func.Name)
	if u == nil {
		return nil, fmt.Errorf("sql: no such table function: %s", fi.Func.Name)
	}
	if u.Kind != ffi.Table && u.Kind != ffi.Expand {
		return nil, fmt.Errorf("sql: %s is not a table UDF", u.Name)
	}
	var child *Plan
	var extra []SQLExpr
	for _, a := range fi.Func.Args {
		if sq, ok := a.(*subqueryArg); ok {
			sub, err := pl.planSelectStmt(sq.Query)
			if err != nil {
				return nil, err
			}
			if child != nil {
				return nil, fmt.Errorf("sql: table function %s has multiple subquery inputs", u.Name)
			}
			child = sub
			continue
		}
		// Extra args must be constants (bound against nothing).
		e, _, err := pl.bindExpr(a, &Plan{Schema: data.Schema{}})
		if err != nil {
			return nil, fmt.Errorf("sql: table function %s: non-constant argument: %w", u.Name, err)
		}
		extra = append(extra, e)
	}
	if child == nil {
		child = &Plan{Op: OpProject, Schema: data.Schema{}, EstRows: 1}
	}
	qual := fi.Alias
	if qual == "" {
		qual = u.Name
	}
	schema := make(data.Schema, len(u.OutKinds))
	for i, k := range u.OutKinds {
		name := fmt.Sprintf("c%d", i)
		if i < len(u.OutNames) {
			name = u.OutNames[i]
		}
		schema[i] = data.Field{Name: name, Kind: k}
	}
	sel := u.Stats.Selectivity()
	if sel == 1 && u.Stats.Calls.Load() == 0 {
		sel = 1.5 // table UDFs tend to expand; mild default
	}
	return &Plan{Op: OpTableFunc, Children: []*Plan{child}, Schema: schema,
		Quals: qualsFor(qual, len(schema)), UDF: u, TFArgs: extra,
		EstRows: child.EstRows * sel}, nil
}

// expandStars replaces SELECT * (and t.*) with explicit column items.
func (pl *planner) expandStars(items []SelectItem, in *Plan) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if it.Star {
			for i, f := range in.Schema {
				out = append(out, SelectItem{
					Expr:  &ColRef{Name: f.Name, Index: i},
					Alias: f.Name,
				})
			}
			continue
		}
		if cr, ok := it.Expr.(*ColRef); ok && cr.Name == "*" {
			for i, f := range in.Schema {
				if strings.EqualFold(in.Quals[i], cr.Table) {
					out = append(out, SelectItem{
						Expr:  &ColRef{Name: f.Name, Index: i},
						Alias: f.Name,
					})
				}
			}
			continue
		}
		out = append(out, it)
	}
	return out, nil
}

// planExpand detects table/expand UDFs in the select list and plans a
// pre-projection + Expand node, rewriting the items to column refs.
func (pl *planner) planExpand(items []SelectItem, in *Plan) (*Plan, []SelectItem, error) {
	expandIdx := -1
	var expandUDF *ffi.UDF
	for i, it := range items {
		f, ok := it.Expr.(*FuncExpr)
		if !ok {
			continue
		}
		u := pl.udf(f.Name)
		if u == nil || (u.Kind != ffi.Expand && u.Kind != ffi.Table) {
			continue
		}
		if expandIdx >= 0 {
			return nil, nil, fmt.Errorf("sql: multiple table UDFs in one SELECT list are not supported")
		}
		expandIdx = i
		expandUDF = u
	}
	if expandIdx < 0 {
		return in, items, nil
	}

	f := items[expandIdx].Expr.(*FuncExpr)
	// Pre-project: every other item plus the UDF's arguments.
	var preExprs []SQLExpr
	var preSchema data.Schema
	for i, it := range items {
		if i == expandIdx {
			continue
		}
		e, k, err := pl.bindExpr(it.Expr, in)
		if err != nil {
			return nil, nil, err
		}
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, data.Field{Name: itemName(it, len(preSchema)), Kind: fieldKind(k)})
	}
	nKeep := len(preExprs)
	var tfArgs []SQLExpr
	for ai, a := range f.Args {
		e, k, err := pl.bindExpr(a, in)
		if err != nil {
			return nil, nil, err
		}
		preExprs = append(preExprs, e)
		argName := fmt.Sprintf("__arg%d", ai)
		preSchema = append(preSchema, data.Field{Name: argName, Kind: fieldKind(k)})
		tfArgs = append(tfArgs, &ColRef{Name: argName, Index: nKeep + ai})
	}
	pre := &Plan{Op: OpProject, Children: []*Plan{in}, Schema: preSchema,
		Quals: make([]string, len(preSchema)), Exprs: preExprs, EstRows: in.EstRows}

	outName := itemName(items[expandIdx], 0)
	var expSchema data.Schema
	expSchema = append(expSchema, preSchema[:nKeep]...)
	for i, k := range expandUDF.OutKinds {
		name := outName
		if len(expandUDF.OutKinds) > 1 {
			if i < len(expandUDF.OutNames) {
				name = expandUDF.OutNames[i]
			} else {
				name = fmt.Sprintf("%s_%d", outName, i)
			}
		}
		expSchema = append(expSchema, data.Field{Name: name, Kind: k})
	}
	sel := expandUDF.Stats.Selectivity()
	if expandUDF.Stats.Calls.Load() == 0 {
		sel = 2
	}
	exp := &Plan{Op: OpExpand, Children: []*Plan{pre}, Schema: expSchema,
		Quals: make([]string, len(expSchema)), UDF: expandUDF, TFArgs: tfArgs,
		EstRows: pre.EstRows * sel}

	// Rewrite items to refs into the expand output, restoring order: the
	// UDF's item becomes every output column, under its expSchema name.
	newItems := make([]SelectItem, 0, len(expSchema))
	ki := 0
	for i, it := range items {
		if i == expandIdx {
			for j := nKeep; j < len(expSchema); j++ {
				newItems = append(newItems, SelectItem{Expr: &ColRef{Name: expSchema[j].Name, Index: j}, Alias: expSchema[j].Name})
			}
			continue
		}
		newItems = append(newItems, SelectItem{Expr: &ColRef{Name: expSchema[ki].Name, Index: ki}, Alias: itemName(it, i)})
		ki++
	}
	return exp, newItems, nil
}

// itemName derives the output column name of a select item.
func itemName(it SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColRef); ok {
		return cr.Name
	}
	if f, ok := it.Expr.(*FuncExpr); ok {
		return f.Name
	}
	return fmt.Sprintf("col%d", pos)
}

// project builds a Project node evaluating the select items.
func (pl *planner) project(items []SelectItem, in *Plan) (*Plan, error) {
	exprs := make([]SQLExpr, len(items))
	schema := make(data.Schema, len(items))
	quals := make([]string, len(items))
	for i, it := range items {
		e, k, err := pl.bindExpr(it.Expr, in)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		schema[i] = data.Field{Name: itemName(it, i), Kind: fieldKind(k)}
		// Plain column references keep their source qualifier so outer
		// scopes can still address them as alias.column.
		if cr, ok := e.(*ColRef); ok && cr.Index >= 0 && cr.Index < len(in.Quals) &&
			strings.EqualFold(schema[i].Name, in.Schema[cr.Index].Name) {
			quals[i] = in.Quals[cr.Index]
		}
	}
	// Identity projection elision.
	if len(exprs) == len(in.Schema) {
		identity := true
		for i, e := range exprs {
			cr, ok := e.(*ColRef)
			if !ok || cr.Index != i || !strings.EqualFold(schema[i].Name, in.Schema[i].Name) {
				identity = false
				break
			}
		}
		if identity {
			return in, nil
		}
	}
	return &Plan{Op: OpProject, Children: []*Plan{in}, Schema: schema,
		Quals: quals, Exprs: exprs, EstRows: in.EstRows}, nil
}
