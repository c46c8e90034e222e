package core

import (
	"fmt"
	"strings"

	"qfusor/internal/sqlengine"
)

// RenderSQL implements the paper's rewrite path 1 (§5.4): the rewritten
// plan is expressed as a standard SQL statement that calls the fused
// wrapper UDFs as table functions, suitable for re-submission to the
// engine. executable reports whether the rendering round-trips through
// this engine's dialect (join-heavy plans render display-SQL only).
func RenderSQL(q *sqlengine.Query) (sql string, executable bool) {
	r := &sqlRenderer{executable: true}
	var b strings.Builder
	if len(q.CTEs) > 0 {
		b.WriteString("WITH ")
		for i, cte := range q.CTEs {
			if i > 0 {
				b.WriteString(",\n     ")
			}
			names := cte.Plan.Schema.Names()
			fmt.Fprintf(&b, "%s(%s) AS (%s)", cte.Name, strings.Join(names, ", "),
				r.render(cte.Plan))
		}
		b.WriteString("\n")
	}
	b.WriteString(r.render(q.Root))
	return b.String(), r.executable
}

type sqlRenderer struct {
	executable bool
	aliasN     int
}

func (r *sqlRenderer) alias() string {
	r.aliasN++
	return fmt.Sprintf("__t%d", r.aliasN)
}

// render emits a SELECT-able expression for the plan node.
func (r *sqlRenderer) render(p *sqlengine.Plan) string {
	switch p.Op {
	case sqlengine.OpScan, sqlengine.OpCTERef:
		return "SELECT * FROM " + p.Table
	case sqlengine.OpProject:
		if len(p.Children) == 0 {
			return "SELECT " + r.items(p)
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s",
			r.items(p), r.render(p.Children[0]), r.alias())
	case sqlengine.OpFilter:
		return fmt.Sprintf("SELECT * FROM (%s) AS %s WHERE %s",
			r.render(p.Children[0]), r.alias(), exprSQL(p.Exprs[0]))
	case sqlengine.OpFused, sqlengine.OpFusedAgg, sqlengine.OpTableFunc:
		inner := "SELECT * FROM __empty"
		if len(p.Children) > 0 {
			inner = r.render(p.Children[0])
		}
		if p.Op != sqlengine.OpTableFunc && len(p.TFArgs) > 0 {
			// Narrow the input to the wrapper's argument columns.
			cols := make([]string, len(p.TFArgs))
			for i, a := range p.TFArgs {
				cols[i] = exprSQL(a)
			}
			inner = fmt.Sprintf("SELECT %s FROM (%s) AS %s",
				strings.Join(cols, ", "), inner, r.alias())
		}
		extras := ""
		for _, a := range p.TFArgs {
			if p.Op == sqlengine.OpTableFunc {
				extras += ", " + exprSQL(a)
			}
		}
		from := fmt.Sprintf("%s((%s)%s) AS %s", p.UDF.Name, inner, extras, r.alias())
		if p.Op == sqlengine.OpFusedAgg {
			// The wrapper yields the group keys and aggregate arguments;
			// a GROUP BY over its output columns folds them.
			return r.aggregate(p, from)
		}
		return "SELECT * FROM " + from
	case sqlengine.OpExpand:
		// Expand UDFs appear in SELECT position.
		nKeep := p.ExpandKeep()
		keeps := make([]string, 0, nKeep+1)
		child := p.Children[0]
		for _, f := range child.Schema[:nKeep] {
			keeps = append(keeps, f.Name)
		}
		args := make([]string, len(p.TFArgs))
		for i, a := range p.TFArgs {
			args[i] = exprSQL(a)
		}
		keeps = append(keeps, fmt.Sprintf("%s(%s) AS %s",
			p.UDF.Name, strings.Join(args, ", "), p.Schema[nKeep].Name))
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s",
			strings.Join(keeps, ", "), r.render(child), r.alias())
	case sqlengine.OpAggregate:
		return r.aggregate(p, fmt.Sprintf("(%s) AS %s", r.render(p.Children[0]), r.alias()))
	case sqlengine.OpSort:
		keys := make([]string, len(p.SortItems))
		for i, s := range p.SortItems {
			keys[i] = exprSQL(s.Expr)
			if s.Desc {
				keys[i] += " DESC"
			}
		}
		return fmt.Sprintf("%s ORDER BY %s", r.render(p.Children[0]), strings.Join(keys, ", "))
	case sqlengine.OpLimit:
		sql := fmt.Sprintf("%s LIMIT %d", r.render(p.Children[0]), p.LimitN)
		if p.OffsetN > 0 {
			sql += fmt.Sprintf(" OFFSET %d", p.OffsetN)
		}
		return sql
	case sqlengine.OpUnion:
		return fmt.Sprintf("%s UNION ALL %s", r.render(p.Children[0]), r.render(p.Children[1]))
	case sqlengine.OpJoin:
		// Qualified-name recovery across joins is lossy; render display
		// SQL only.
		r.executable = false
		kind := p.JoinKind
		if kind == "" {
			kind = "CROSS"
		}
		on := ""
		if p.JoinOn != nil {
			on = " ON " + exprSQL(p.JoinOn)
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s %s JOIN (%s) AS %s%s",
			r.render(p.Children[0]), r.alias(), kind,
			r.render(p.Children[1]), r.alias(), on)
	}
	r.executable = false
	return "SELECT /* unsupported operator " + p.Op.String() + " */ *"
}

// aggregate renders an aggregating node (a DISTINCT is one with no
// aggregates) over the FROM item from: its group keys and aggregates,
// named as its schema, grouped by the keys. Keys reach their columns by
// name, so two keys of one name (SELECT DISTINCT f(a), f(b)) render
// display-only SQL.
func (r *sqlRenderer) aggregate(p *sqlengine.Plan, from string) string {
	var items []string
	named := map[string]bool{}
	for i, k := range p.GroupBy {
		name := strings.ToLower(p.Schema[i].Name)
		r.executable = r.executable && !named[name]
		named[name] = true
		items = append(items, fmt.Sprintf("%s AS %s", exprSQL(k), p.Schema[i].Name))
	}
	for i, a := range p.Aggs {
		call := a.Name + "(*)"
		if !a.Star {
			args := make([]string, len(a.Args))
			for j, e := range a.Args {
				args[j] = exprSQL(e)
			}
			call = a.Name + "(" + strings.Join(args, ", ") + ")"
		}
		items = append(items, fmt.Sprintf("%s AS %s", call, p.Schema[len(p.GroupBy)+i].Name))
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(items, ", "), from)
	if len(p.GroupBy) > 0 {
		keys := make([]string, len(p.GroupBy))
		for i, k := range p.GroupBy {
			keys[i] = exprSQL(k)
		}
		sql += " GROUP BY " + strings.Join(keys, ", ")
	}
	return sql
}

func (r *sqlRenderer) items(p *sqlengine.Plan) string {
	out := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = exprSQL(e)
		if i < len(p.Schema) && p.Schema[i].Name != "" {
			out[i] += " AS " + p.Schema[i].Name
		}
	}
	return strings.Join(out, ", ")
}

// exprSQL renders a bound expression back to SQL text (Lit.String
// handles NULL spelling and quote doubling).
func exprSQL(e sqlengine.SQLExpr) string { return e.String() }
