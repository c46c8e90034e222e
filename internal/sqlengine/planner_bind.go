package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
)

// cloneExpr deep-copies an expression so binding never aliases the
// parsed AST (plans may rebind the same source expression at different
// schema levels).
func cloneExpr(e SQLExpr) SQLExpr { return mapChildren(e, cloneExpr) }

// bindExpr resolves every ColRef in e against the plan's schema.
func (pl *planner) bindExpr(e SQLExpr, p *Plan) error {
	var firstErr error
	walkExpr(e, func(x SQLExpr) bool {
		cr, ok := x.(*ColRef)
		if !ok {
			return true
		}
		idx := resolveCol(p, cr)
		if idx < 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("sql: no such column: %s (schema %s)", cr, p.Schema)
			}
			return false
		}
		cr.Index = idx
		return true
	})
	return firstErr
}

// resolveCol finds the schema index of a column reference (-1 if absent).
func resolveCol(p *Plan, cr *ColRef) int {
	for i, f := range p.Schema {
		if !strings.EqualFold(f.Name, cr.Name) {
			continue
		}
		if cr.Table != "" && i < len(p.Quals) && !strings.EqualFold(p.Quals[i], cr.Table) {
			continue
		}
		return i
	}
	return -1
}

// exprKind infers the output kind of a bound expression.
func exprKind(cat *Catalog, e SQLExpr, in data.Schema) data.Kind {
	switch x := e.(type) {
	case *ColRef:
		if x.Index >= 0 && x.Index < len(in) {
			return in[x.Index].Kind
		}
		return data.KindString
	case *Lit:
		if x.Value.Kind == data.KindNull {
			return data.KindString
		}
		return x.Value.Kind
	case *FuncExpr:
		if u, ok := cat.UDF(x.Name); ok {
			return u.OutKind()
		}
		switch strings.ToLower(x.Name) {
		case "count", "length", "instr":
			return data.KindInt
		case "avg", "median", "round":
			return data.KindFloat
		case "sum", "min", "max", "abs", "coalesce", "ifnull", "nullif":
			if len(x.Args) > 0 {
				return exprKind(cat, x.Args[0], in)
			}
			return data.KindFloat
		default:
			return data.KindString
		}
	case *BinExpr:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "LIKE":
			return data.KindBool
		case "||":
			return data.KindString
		default:
			lk := exprKind(cat, x.L, in)
			rk := exprKind(cat, x.R, in)
			if lk == data.KindFloat || rk == data.KindFloat {
				return data.KindFloat
			}
			if lk == data.KindString || rk == data.KindString {
				return data.KindString
			}
			return data.KindInt
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			return data.KindBool
		}
		return exprKind(cat, x.E, in)
	case *CaseExpr:
		for _, t := range x.Thens {
			if lit, ok := t.(*Lit); ok && lit.Value.IsNull() {
				continue
			}
			return exprKind(cat, t, in)
		}
		if x.Else != nil {
			return exprKind(cat, x.Else, in)
		}
		return data.KindString
	case *BetweenExpr, *InExpr, *IsNullExpr:
		return data.KindBool
	case *CastExpr:
		return x.Kind
	}
	return data.KindString
}

// PlanStatement plans any supported statement kind into a Query plus a
// tag describing the DML action ("" for pure SELECT).
func PlanStatement(cat *Catalog, st Statement) (*Query, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: PlanStatement supports SELECT; use Engine.Exec for DML/DDL")
	}
	return PlanSelect(cat, sel)
}
