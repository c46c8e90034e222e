package sqlengine

import (
	"fmt"
	"strings"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// SelectStmt is a full select: CTEs, a chain of UNION'd cores, ordering
// and limit.
type SelectStmt struct {
	CTEs    []CTE
	Cores   []*SelectCore
	UnionOp []string // between cores: "UNION", "UNION ALL", "EXCEPT", "INTERSECT"
	OrderBy []OrderItem
	Limit   int64 // -1 = none
	Offset  int64
}

func (*SelectStmt) stmtNode() {}

// CTE is one WITH entry.
type CTE struct {
	Name    string
	Columns []string
	Query   *SelectStmt
}

// SelectCore is a single SELECT ... FROM ... WHERE ... GROUP BY block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Joins    []JoinClause
	Where    SQLExpr
	GroupBy  []SQLExpr
	Having   SQLExpr
}

// SelectItem is one projection expression with an optional alias.
type SelectItem struct {
	Expr  SQLExpr
	Alias string
	Star  bool // SELECT *
}

// FromItem is a table, subquery or table function reference.
type FromItem struct {
	Table    string
	Subquery *SelectStmt
	Func     *FuncExpr // table function in FROM
	Alias    string
}

// JoinClause is an explicit JOIN ... ON.
type JoinClause struct {
	Kind string // "INNER", "LEFT", "CROSS"
	Item FromItem
	On   SQLExpr
}

// OrderItem is one ORDER BY expression.
type OrderItem struct {
	Expr SQLExpr
	Desc bool
}

// UpdateStmt is UPDATE table SET col=expr[, ...] [WHERE expr].
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []SQLExpr
	Where SQLExpr
}

func (*UpdateStmt) stmtNode() {}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where SQLExpr
}

func (*DeleteStmt) stmtNode() {}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name   string
	Schema data.Schema
}

func (*CreateTableStmt) stmtNode() {}

// InsertStmt is INSERT INTO name VALUES (...),(...) or INSERT ... SELECT.
type InsertStmt struct {
	Table  string
	Rows   [][]SQLExpr
	Select *SelectStmt
}

func (*InsertStmt) stmtNode() {}

// ExplainStmt wraps another statement.
type ExplainStmt struct {
	Stmt Statement
}

func (*ExplainStmt) stmtNode() {}

// ---- SQL expressions ----

// SQLExpr is a SQL scalar expression.
type SQLExpr interface {
	exprNode()
	String() string
}

// ColRef is a (possibly qualified) column reference. Index is resolved
// by the planner against the input schema (-1 = unresolved).
type ColRef struct {
	Table string
	Name  string
	Index int
}

func (*ColRef) exprNode() {}
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Lit is a literal constant.
type Lit struct {
	Value data.Value
}

func (*Lit) exprNode() {}

// String renders the literal in SQL syntax (NULL, quoted strings with
// doubled quotes) so EXPLAIN output and rewritten SQL stay parseable.
func (l *Lit) String() string {
	switch l.Value.Kind {
	case data.KindNull:
		return "NULL"
	case data.KindString:
		return "'" + strings.ReplaceAll(l.Value.S, "'", "''") + "'"
	case data.KindBool:
		if l.Value.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return l.Value.String()
}

// FuncExpr is a function call: native scalar, native aggregate, or UDF.
// UDF is the function the planner bound the name to (nil for a builtin);
// every later consumer reads it, so a statement never resolves a name
// twice.
type FuncExpr struct {
	Name string
	Args []SQLExpr
	Star bool     // COUNT(*)
	UDF  *ffi.UDF // set by the binder
}

func (*FuncExpr) exprNode() {}
func (f *FuncExpr) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// BinExpr is a binary operation (arithmetic, comparison, AND/OR, ||, LIKE).
type BinExpr struct {
	Op   string
	L, R SQLExpr
}

func (*BinExpr) exprNode() {}
func (b *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string
	E  SQLExpr
}

func (*UnaryExpr) exprNode() {}
func (u *UnaryExpr) String() string {
	return fmt.Sprintf("(%s %s)", u.Op, u.E)
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand SQLExpr // nil for searched CASE
	Whens   []SQLExpr
	Thens   []SQLExpr
	Else    SQLExpr
}

func (*CaseExpr) exprNode() {}
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.String())
	}
	for i := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", c.Whens[i], c.Thens[i])
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi SQLExpr
	Not       bool
}

func (*BetweenExpr) exprNode() {}
func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}

// InExpr is x [NOT] IN (v1, v2, ...).
type InExpr struct {
	E    SQLExpr
	List []SQLExpr
	Not  bool
}

func (*InExpr) exprNode() {}
func (in *InExpr) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", in.E, not, strings.Join(parts, ", "))
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	E   SQLExpr
	Not bool
}

func (*IsNullExpr) exprNode() {}
func (i *IsNullExpr) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// CastExpr is CAST(e AS type).
type CastExpr struct {
	E    SQLExpr
	Kind data.Kind
}

func (*CastExpr) exprNode() {}
func (c *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", c.E, c.Kind)
}

// StarExpr is a bare * inside an expression position.
type StarExpr struct{}

func (*StarExpr) exprNode()      {}
func (*StarExpr) String() string { return "*" }

// WalkExpr visits e and its children pre-order; fn returning false
// prunes the subtree.
func WalkExpr(e SQLExpr, fn func(SQLExpr) bool) { walkExpr(e, fn) }

// RewriteExpr returns a deep copy of e with fn applied to every node
// bottom-up: children are rebuilt first, then fn sees the fresh node
// and may return a replacement (return the argument to keep it). The
// input is never mutated, so a template expression can be expanded at
// many call sites — the relational inliner uses this to substitute UDF
// parameter markers with call-site argument expressions.
func RewriteExpr(e SQLExpr, fn func(SQLExpr) SQLExpr) SQLExpr {
	if e == nil {
		return nil
	}
	return fn(mapChildren(e, func(c SQLExpr) SQLExpr { return RewriteExpr(c, fn) }))
}

// mapChildren returns a copy of e whose direct children are replaced by
// fn's results (absent children — a searched CASE's operand, a missing
// ELSE — stay absent). The input is never mutated.
func mapChildren(e SQLExpr, fn func(SQLExpr) SQLExpr) SQLExpr {
	opt := func(c SQLExpr) SQLExpr {
		if c == nil {
			return nil
		}
		return fn(c)
	}
	each := func(cs []SQLExpr) []SQLExpr {
		if cs == nil {
			return nil
		}
		out := make([]SQLExpr, len(cs))
		for i, c := range cs {
			out[i] = fn(c)
		}
		return out
	}
	switch x := e.(type) {
	case *ColRef:
		c := *x
		return &c
	case *Lit:
		c := *x
		return &c
	case *FuncExpr:
		return &FuncExpr{Name: x.Name, Star: x.Star, Args: each(x.Args), UDF: x.UDF}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: fn(x.L), R: fn(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, E: fn(x.E)}
	case *CaseExpr:
		c := &CaseExpr{Operand: opt(x.Operand), Else: opt(x.Else)}
		if x.Whens != nil {
			c.Whens = make([]SQLExpr, len(x.Whens))
			c.Thens = make([]SQLExpr, len(x.Thens))
			for i := range x.Whens {
				c.Whens[i] = fn(x.Whens[i])
				c.Thens[i] = fn(x.Thens[i])
			}
		}
		return c
	case *BetweenExpr:
		return &BetweenExpr{E: fn(x.E), Lo: fn(x.Lo), Hi: fn(x.Hi), Not: x.Not}
	case *InExpr:
		return &InExpr{E: fn(x.E), List: each(x.List), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{E: fn(x.E), Not: x.Not}
	case *CastExpr:
		return &CastExpr{E: fn(x.E), Kind: x.Kind}
	case *StarExpr:
		return &StarExpr{}
	}
	return e
}

// walkExpr visits e and its children pre-order; fn returning false
// prunes the subtree.
func walkExpr(e SQLExpr, fn func(SQLExpr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *FuncExpr:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *BinExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *UnaryExpr:
		walkExpr(x.E, fn)
	case *CaseExpr:
		walkExpr(x.Operand, fn)
		for i := range x.Whens {
			walkExpr(x.Whens[i], fn)
			walkExpr(x.Thens[i], fn)
		}
		walkExpr(x.Else, fn)
	case *BetweenExpr:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *InExpr:
		walkExpr(x.E, fn)
		for _, it := range x.List {
			walkExpr(it, fn)
		}
	case *IsNullExpr:
		walkExpr(x.E, fn)
	case *CastExpr:
		walkExpr(x.E, fn)
	}
}
