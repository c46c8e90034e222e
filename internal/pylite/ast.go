package pylite

import "qfusor/internal/data"

// Node is the interface implemented by all AST nodes.
type Node interface{ nodeLine() int }

type pos struct{ Line int }

func (p pos) nodeLine() int { return p.Line }

// ---- Statements ----

// Stmt is a statement node.
type Stmt interface{ Node }

// Module is a parsed source file: a list of top-level statements.
type Module struct {
	pos
	Body []Stmt
}

// FuncDef is `def name(params): body`, optionally decorated.
type FuncDef struct {
	pos
	Name       string
	Params     []Param
	Vararg     string // name of *args parameter, "" if none
	Body       []Stmt
	IsGen      bool     // contains yield
	Decorators []string // decorator names (e.g. scalarudf)
	Returns    string   // annotation text after ->, if any
}

// Param is one function parameter with an optional default.
type Param struct {
	Name       string
	Default    Expr // nil if required
	Annotation string
}

// ClassDef is `class name: methods...`.
type ClassDef struct {
	pos
	Name       string
	Body       []Stmt
	Decorators []string
}

// Return is `return [expr]`.
type Return struct {
	pos
	Value Expr // nil for bare return
}

// Assign is `target = value` (or chained a = b = v; Targets left-to-right).
type Assign struct {
	pos
	Targets []Expr // Name, Attr, Index, or TupleLit of those
	Value   Expr
}

// AugAssign is `target op= value`.
type AugAssign struct {
	pos
	Target Expr
	Op     string // "+", "-", ...
	Value  Expr
}

// ExprStmt is a bare expression statement (includes yield expressions).
type ExprStmt struct {
	pos
	Value Expr
}

// If is if/elif/else.
type If struct {
	pos
	Cond Expr
	Body []Stmt
	Else []Stmt // may hold a nested If for elif
}

// While is `while cond: body` with optional else omitted.
type While struct {
	pos
	Cond Expr
	Body []Stmt
}

// For is `for target in iter: body`.
type For struct {
	pos
	Target Expr // Name or TupleLit
	Iter   Expr
	Body   []Stmt
}

// Pass, Break, Continue.
type Pass struct{ pos }
type Break struct{ pos }
type Continue struct{ pos }

// Import is `import a, b` (From empty: each name binds its module) or
// `from m import a, b` (From m: each name binds m's attribute).
type Import struct {
	pos
	From  string
	Names []string
}

// Del is `del target`.
type Del struct {
	pos
	Target Expr
}

// Global is `global names` (declares names as module-level inside a func).
type Global struct {
	pos
	Names []string
}

// Raise is `raise expr` or bare `raise`.
type Raise struct {
	pos
	Value Expr
}

// Try is try/except [as name]/finally.
type Try struct {
	pos
	Body    []Stmt
	Except  []Stmt
	ExcName string // `except Exception as e` binds e
	ExcType string // exception class name filter, "" catches all
	Finally []Stmt
}

// Assert is `assert cond[, msg]`.
type Assert struct {
	pos
	Cond Expr
	Msg  Expr
}

// ---- Expressions ----

// Expr is an expression node.
type Expr interface{ Node }

// Const is a literal constant.
type Const struct {
	pos
	Value data.Value
}

// Name is an identifier reference.
type Name struct {
	pos
	ID string
	// Slot is filled by the compiler's resolver: >=0 local slot, -1 global.
	Slot int
}

// BinOp is `left op right` for + - * / // % ** & | ^.
type BinOp struct {
	pos
	Op          string
	Left, Right Expr
}

// UnaryOp is `-x`, `+x`, `not x`, `~x`.
type UnaryOp struct {
	pos
	Op      string
	Operand Expr
}

// BoolOp is short-circuit `and`/`or` over two operands.
type BoolOp struct {
	pos
	Op          string // "and" | "or"
	Left, Right Expr
}

// Compare is a (possibly chained) comparison a < b <= c.
type Compare struct {
	pos
	Left  Expr
	Ops   []string // "<" "<=" ">" ">=" "==" "!=" "in" "not in" "is" "is not"
	Comps []Expr
}

// Call is `fn(args..., *starArg)`.
type Call struct {
	pos
	Fn      Expr
	Args    []Expr
	StarArg Expr // *expr splat, nil if none
	// Kwargs as parallel lists (rare in UDF code, but supported).
	KwNames []string
	KwVals  []Expr
}

// Attr is `obj.name`.
type Attr struct {
	pos
	Obj  Expr
	Name string
}

// Index is `obj[key]`.
type Index struct {
	pos
	Obj Expr
	Key Expr
}

// SliceExpr is `obj[lo:hi:step]` (any part may be nil).
type SliceExpr struct {
	pos
	Obj          Expr
	Lo, Hi, Step Expr
}

// ListLit is `[a, b, c]`.
type ListLit struct {
	pos
	Items []Expr
}

// TupleLit is `(a, b)` or a bare `a, b`. Evaluates to a list value.
type TupleLit struct {
	pos
	Items []Expr
}

// SetLit is `{a, b}`.
type SetLit struct {
	pos
	Items []Expr
}

// DictLit is `{k: v, ...}`.
type DictLit struct {
	pos
	Keys []Expr
	Vals []Expr
}

// Lambda is `lambda params: expr`.
type Lambda struct {
	pos
	Params []Param
	Body   Expr
}

// IfExp is `a if cond else b`.
type IfExp struct {
	pos
	Cond, Then, Else Expr
}

// Comp is a list/set/generator comprehension with one or more for clauses.
type Comp struct {
	pos
	Kind byte // 'l' list, 's' set, 'g' generator
	Elt  Expr
	Fors []CompFor
}

// CompFor is one `for target in iter [if cond]*` clause.
type CompFor struct {
	Target Expr
	Iter   Expr
	Ifs    []Expr
}

// Yield is `yield expr` (expression form; used as ExprStmt in practice).
type Yield struct {
	pos
	Value Expr
}
