package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
)

// BindError is a statement the binder rejects: it parses, but names a
// column, an ORDER BY position or an argument kind the query cannot
// have.
type BindError struct{ Msg string }

func (e *BindError) Error() string { return "sql: " + e.Msg }

func bindErrorf(format string, args ...any) error {
	return &BindError{Msg: fmt.Sprintf(format, args...)}
}

// bindExpr returns a copy of e with every column reference resolved
// against p's schema and every call bound to its UDF (FuncExpr.UDF; a
// call that already holds one keeps it), and the one static kind the
// copy has (KindNull: NULL on every row). Wherever a row's value could
// otherwise differ from the kind of its node, the copy carries a CAST:
// every CASE branch and COALESCE/IFNULL argument is cast to its node's
// kind. (Arithmetic needs none: sqlArith computes a string operand as a
// float, the kind KindOf gives it.) Both evaluators, the fused traces and
// the inliner then compute exactly the kinds KindOf assigns.
func (pl *planner) bindExpr(e SQLExpr, p *Plan) (SQLExpr, data.Kind, error) {
	b := &binder{typer: typer{p.Schema}, pl: pl, p: p}
	out := b.bind(e)
	return out, b.of(out), b.err
}

type binder struct {
	typer
	pl  *planner
	p   *Plan
	err error
}

func (b *binder) bind(e SQLExpr) SQLExpr {
	if cr, ok := e.(*ColRef); ok {
		c := *cr
		if c.Index = resolveCol(b.p, cr); c.Index < 0 && b.err == nil {
			b.err = bindErrorf("no such column: %s (schema %s)", cr, b.p.Schema)
		}
		return &c
	}
	x := mapChildren(e, b.bind)
	if f, ok := x.(*FuncExpr); ok && f.UDF == nil {
		f.UDF = b.pl.udf(f.Name)
	}
	k := b.of(x)
	switch n := x.(type) {
	case *CaseExpr:
		for i := range n.Thens {
			n.Thens[i] = b.cast(n.Thens[i], k)
		}
		if n.Else != nil {
			n.Else = b.cast(n.Else, k)
		}
	case *FuncExpr:
		if n.UDF != nil {
			break
		}
		switch strings.ToLower(n.Name) {
		case "coalesce", "ifnull":
			for i := range n.Args {
				n.Args[i] = b.cast(n.Args[i], k)
			}
		case "sum", "avg":
			if len(n.Args) == 0 || b.err != nil {
				break
			}
			arg := n.Args[0]
			if cr, ok := arg.(*ColRef); ok && b.pl.allNull(b.p, cr.Index) {
				break
			}
			if ak := b.of(arg); !isNumber(ak) && ak != data.KindNull {
				b.err = bindErrorf("%s over a %s argument: %s", n.Name, ak, arg)
			}
		}
	}
	return x
}

// cast returns x at kind k: as it is when it already has k or is NULL on
// every row, a literal converted now, anything else under a CAST.
func (b *binder) cast(x SQLExpr, k data.Kind) SQLExpr {
	if have := b.of(x); have == k || have == data.KindNull {
		return x
	}
	if lit, ok := x.(*Lit); ok {
		return &Lit{Value: castValue(lit.Value, k)}
	}
	return &CastExpr{E: x, Kind: k}
}

// KindOf is the one typing rule: the static kind of node x, given the
// kinds kid reports for its children. Column references are leaves whose
// kind is their schema's; the caller resolves them. The binder and the
// inliner apply it bottom-up (ExprKind), the expression compiler over the
// kinds of its operand slots.
//
// Sibling numbers join as arithmetic combines them — bool ⊔ int is int,
// either ⊔ float is float — and any other mix of scalar kinds is string;
// a NULL literal (KindNull) takes its siblings' kind. Arithmetic over
// ints (bools count as ints) is int, over anything else float. abs keeps an
// int and makes anything else a float; round is float; nullif, min and
// max follow their first argument, sum too (bools sum as ints); a UDF
// has its declared kind.
func KindOf(x SQLExpr, kid func(SQLExpr) data.Kind) data.Kind {
	switch n := x.(type) {
	case *Lit:
		return n.Value.Kind
	case *BinExpr:
		switch {
		case isArith(n.Op):
			return arithKind(kid(n.L), kid(n.R))
		case n.Op == "||":
			return data.KindString
		}
		return data.KindBool // AND, OR, the comparisons, LIKE
	case *UnaryExpr:
		if n.Op == "NOT" {
			return data.KindBool
		}
		return arithKind(data.KindInt, kid(n.E)) // 0 - e
	case *CaseExpr:
		k := data.KindNull // a missing ELSE is ELSE NULL
		for _, t := range n.Thens {
			k = joinKind(k, kid(t))
		}
		if n.Else != nil {
			k = joinKind(k, kid(n.Else))
		}
		return k
	case *BetweenExpr, *InExpr, *IsNullExpr:
		return data.KindBool
	case *CastExpr:
		return n.Kind
	case *FuncExpr:
		if n.UDF != nil {
			return n.UDF.OutKind()
		}
		arg := data.KindNull
		if len(n.Args) > 0 {
			arg = kid(n.Args[0])
		}
		switch strings.ToLower(n.Name) {
		case "count", "length", "instr":
			return data.KindInt
		case "avg", "median", "round":
			return data.KindFloat
		case "abs":
			if arg == data.KindInt {
				return data.KindInt
			}
			return data.KindFloat
		case "sum":
			if arg == data.KindFloat || arg == data.KindNull {
				return arg
			}
			return data.KindInt
		case "min", "max", "nullif":
			return arg
		case "coalesce", "ifnull":
			k := data.KindNull
			for _, a := range n.Args {
				k = joinKind(k, kid(a))
			}
			return k
		}
	}
	return data.KindString
}

// typer types bound expressions whose column references index in.
type typer struct{ in data.Schema }

func (t typer) of(x SQLExpr) data.Kind {
	if cr, ok := x.(*ColRef); ok {
		if cr.Index >= 0 && cr.Index < len(t.in) {
			return t.in[cr.Index].Kind
		}
		return data.KindString
	}
	return KindOf(x, t.of)
}

// ExprKind is KindOf applied bottom-up to a bound expression whose column
// references index in.
func ExprKind(e SQLExpr, in data.Schema) data.Kind { return typer{in}.of(e) }

// joinKind is the kind two sibling values share. Numbers join the way
// arithmetic combines them: a bool with an int is an int, either with a
// float a float.
func joinKind(a, b data.Kind) data.Kind {
	switch {
	case a == b || b == data.KindNull:
		return a
	case a == data.KindNull:
		return b
	case isNumber(a) && isNumber(b):
		return arithKind(a, b)
	}
	return data.KindString
}

// arithKind is the kind of l (op) r for an arithmetic operator.
func arithKind(l, r data.Kind) data.Kind {
	intLike := func(k data.Kind) bool { return k == data.KindInt || k == data.KindBool || k == data.KindNull }
	switch {
	case l == data.KindNull && r == data.KindNull:
		return data.KindNull
	case intLike(l) && intLike(r):
		return data.KindInt
	}
	return data.KindFloat
}

func isArith(op string) bool {
	return op == "+" || op == "-" || op == "*" || op == "/" || op == "%"
}

// isNumber reports whether values of kind k compute as numbers (a bool
// as 0/1).
func isNumber(k data.Kind) bool {
	return k == data.KindInt || k == data.KindFloat || k == data.KindBool
}

// fieldKind is the schema kind of a value of kind k: a column that is
// NULL on every row is a string column.
func fieldKind(k data.Kind) data.Kind {
	if k == data.KindNull {
		return data.KindString
	}
	return k
}

// allNull reports whether column i of p is NULL on every row: a NULL
// literal some projection computes, passed on unchanged. fieldKind
// stores such a column as a string column; where the rule lets a NULL
// take its siblings' kind — a UNION arm, the argument of SUM or AVG —
// the planner asks this instead of reading that kind.
func (pl *planner) allNull(p *Plan, i int) bool {
	switch p.Op {
	case OpProject:
		if i >= len(p.Exprs) {
			return false
		}
		e := p.Exprs[i]
		if c, ok := e.(*CastExpr); ok { // a cast NULL is NULL
			e = c.E
		}
		switch x := e.(type) {
		case *Lit:
			return x.Value.IsNull()
		case *ColRef:
			return len(p.Children) == 1 && pl.allNull(p.Children[0], x.Index)
		}
	case OpFilter, OpSort, OpLimit:
		return pl.allNull(p.Children[0], i)
	case OpAggregate: // a group key that is a column of the input
		if i < len(p.GroupBy) {
			if x, ok := p.GroupBy[i].(*ColRef); ok {
				return pl.allNull(p.Children[0], x.Index)
			}
		}
	case OpUnion:
		return pl.allNull(p.Children[0], i) && pl.allNull(p.Children[1], i)
	case OpJoin:
		if nl := len(p.Children[0].Schema); i >= nl {
			return pl.allNull(p.Children[1], i-nl)
		}
		return pl.allNull(p.Children[0], i)
	case OpCTERef:
		if body, ok := pl.bodies[strings.ToLower(p.Table)]; ok {
			return pl.allNull(body, i)
		}
	}
	return false
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

// PlanStatement plans any supported statement kind into a Query plus a
// tag describing the DML action ("" for pure SELECT).
func PlanStatement(cat *Catalog, st Statement) (*Query, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: PlanStatement supports SELECT; use Engine.Exec for DML/DDL")
	}
	return PlanSelect(cat, sel)
}
