package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// Relational inlining (Froid-style; ROADMAP item 4): instead of fusing
// a UDF behind the FFI boundary, translate its body into an engine
// expression tree and substitute it at every call site, so the
// optimizer sees through the UDF and the executor never crosses into
// the interpreter at all. A call inlines if and only if the UDF's PyLite
// body translates (straight-line arithmetic / comparisons / string
// builtins / single-return conditionals) and the call's argument and
// result kinds check; everything else stays opaque and falls through to
// the VM/closure fusion ladder unchanged.
//
// The translation is exactness-first: an operation is only emitted when
// the engine expression produces bit-identical results to the PyLite
// interpreter for every reachable input, including NULLs. The load-
// bearing difference is NULL handling — PyLite raises TypeError where
// SQL propagates NULL — so every strict operation (arithmetic, all
// comparisons, builtins, method calls) requires its operands to be
// provably non-NULL under a symbolic null-state analysis. Proofs come
// from the Froid guard idiom:
//
//	def f(a):
//	    if a is None: return None
//	    return a * 2
//
// The `a is None` branch refines `a` to non-NULL in the else branch, so
// the multiplication translates; a UDF that touches a parameter without
// guarding it first stays opaque.

// Inline-pass metrics (obs.Default).
var (
	mInlineUDFs    = obs.Default.Counter("qfusor.inline.udfs")
	mInlineOpaque  = obs.Default.Counter("qfusor.inline.opaque")
	mInlineSites   = obs.Default.Counter("qfusor.inline.sites")
	mInlineQueries = obs.Default.Counter("qfusor.inline.queries")
	mInlineFull    = obs.Default.Counter("qfusor.inline.full")
)

// inlineForceOpaque makes the pass classify normally but never apply a
// substitution — the test hook behind the five-way differential
// oracle's forced-fallback arm. Checked at application time only, so
// the epoch-fenced classification cache is never poisoned by the hook.
var inlineForceOpaque atomic.Bool

// SetInlineForceOpaque toggles the inline pass's forced-fallback test
// hook: when on, every UDF is treated as opaque at call sites (the
// query runs the VM/closure ladder) while classification and its cache
// stay live.
func SetInlineForceOpaque(on bool) { inlineForceOpaque.Store(on) }

// InlineDecision records one UDF's inlinability verdict for a query —
// surfaced in Report.Inlined, plan-cache entries, \analyze output and
// the flight recorder.
type InlineDecision struct {
	// UDF is the function name.
	UDF string `json:"udf"`
	// Inlinable reports the classification verdict.
	Inlinable bool `json:"inlinable"`
	// Reason explains an opaque verdict (empty when inlinable).
	Reason string `json:"reason,omitempty"`
	// Expr is the translated engine-expression template (parameters
	// appear by name), empty when opaque.
	Expr string `json:"expr,omitempty"`
	// Sites counts call sites this query actually substituted (0 when
	// no site's argument or result kinds matched the template, or under
	// the forced-fallback hook).
	Sites int `json:"sites,omitempty"`
}

// inlineParamTable is the marker table qualifier of parameter
// placeholders inside a cached template. Templates contain no real
// column references (only markers and literals), so any ColRef carrying
// it is a parameter slot; Index is the parameter position.
const inlineParamTable = "__param__"

// inlineInfo is one UDF's cached classification.
type inlineInfo struct {
	template sqlengine.SQLExpr // nil = opaque
	reason   string            // why opaque
}

// inlineCache memoizes per-UDF classifications, epoch-fenced on UDF
// redefinition exactly like the wrapper compile cache: a template bakes
// the UDF body, so any CREATE FUNCTION bump flushes it. Shared by
// pointer across Variant clones.
type inlineCache struct {
	mu       sync.Mutex
	udfEpoch int64
	info     map[string]*inlineInfo
}

func newInlineCache() *inlineCache {
	return &inlineCache{info: make(map[string]*inlineInfo)}
}

// sync flushes cached classifications when any UDF was (re-)defined
// since the last query.
func (ic *inlineCache) sync(cat *sqlengine.Catalog) {
	e := cat.UDFEpoch()
	ic.mu.Lock()
	if e != ic.udfEpoch {
		ic.udfEpoch = e
		ic.info = make(map[string]*inlineInfo)
	}
	ic.mu.Unlock()
}

// classify returns the UDF's (cached) classification.
func (ic *inlineCache) classify(u *ffi.UDF) *inlineInfo {
	ic.mu.Lock()
	if info, ok := ic.info[u.Name]; ok {
		ic.mu.Unlock()
		return info
	}
	ic.mu.Unlock()
	info := classifyUDF(u)
	mInlineUDFs.Inc()
	if info.template == nil {
		mInlineOpaque.Inc()
	}
	ic.mu.Lock()
	ic.info[u.Name] = info
	ic.mu.Unlock()
	return info
}

// classifyUDF runs the full inlinability analysis on one UDF.
func classifyUDF(u *ffi.UDF) *inlineInfo {
	if u.Kind != ffi.Scalar {
		return &inlineInfo{reason: "not a scalar UDF"}
	}
	if u.GoFn != nil {
		return &inlineInfo{reason: "native Go UDF"}
	}
	fn, ok := pylite.FuncOf(u.Fn)
	if !ok {
		return &inlineInfo{reason: "not a PyLite function"}
	}
	switch {
	case fn.Body == nil:
		return &inlineInfo{reason: "no function body (lambda or builtin)"}
	case fn.IsGen:
		return &inlineInfo{reason: "generator function (yield)"}
	case fn.Vararg != "":
		return &inlineInfo{reason: fmt.Sprintf("*%s vararg parameter", fn.Vararg)}
	}
	for _, p := range fn.Params {
		if p.Default != nil {
			return &inlineInfo{reason: fmt.Sprintf("parameter %q has a default", p.Name)}
		}
	}
	if len(fn.Params) != len(u.InKinds) {
		return &inlineInfo{reason: "parameter/kind arity mismatch"}
	}
	tr := &inlTranslator{budget: inlineNodeBudget}
	env := make(inlEnv, len(fn.Params))
	for i, p := range fn.Params {
		env[p.Name] = inlVal{
			e:    &sqlengine.ColRef{Table: inlineParamTable, Name: p.Name, Index: i},
			kind: u.InKinds[i],
		}
	}
	expr, kind, err := tr.block(env, fn.Body)
	if err != nil {
		return &inlineInfo{reason: err.Error()}
	}
	if kind != data.KindNull && kind != u.OutKind() {
		return &inlineInfo{reason: fmt.Sprintf("body produces %s, declared %s", kind, u.OutKind())}
	}
	return &inlineInfo{template: dropNullGuards(expr)}
}

// dropNullGuards eliminates the translated Froid guard idiom
// `CASE WHEN (g IS NULL) THEN NULL ELSE body END` wherever body is
// NULL-strict in g: every engine arithmetic, comparison, concatenation
// and whitelisted builtin already propagates NULL, so the guard re-tests
// what the ELSE branch would compute anyway. The elimination matters for
// nested inlined calls — each layer of guard costs two extra vector
// passes (the IS NULL probe and the CASE merge) per batch.
func dropNullGuards(e sqlengine.SQLExpr) sqlengine.SQLExpr {
	return sqlengine.RewriteExpr(e, func(n sqlengine.SQLExpr) sqlengine.SQLExpr {
		c, ok := n.(*sqlengine.CaseExpr)
		if !ok || c.Operand != nil || len(c.Whens) != 1 || c.Else == nil {
			return n
		}
		g, ok := c.Whens[0].(*sqlengine.IsNullExpr)
		if !ok || g.Not {
			return n
		}
		t, ok := c.Thens[0].(*sqlengine.Lit)
		if !ok || !t.Value.IsNull() {
			return n
		}
		if !nullStrictIn(c.Else, g.E.String()) {
			return n
		}
		return c.Else
	})
}

// nullStrictIn reports whether e necessarily evaluates to NULL when the
// subexpression rendered as key is NULL — i.e. key occurs under an
// unbroken chain of NULL-propagating (strict) operations. Conservative:
// AND/OR (three-valued truthiness), NOT, CASE and IS NULL break the
// chain, as do builtin arguments the engine coerces instead of
// propagating (round's digit count, substr's bounds).
func nullStrictIn(e sqlengine.SQLExpr, key string) bool {
	switch x := e.(type) {
	case *sqlengine.ColRef:
		return x.String() == key
	case *sqlengine.BinExpr:
		switch x.Op {
		case "+", "-", "*", "/", "%", "||", "=", "!=", "<", "<=", ">", ">=", "LIKE":
			return nullStrictIn(x.L, key) || nullStrictIn(x.R, key)
		}
		return false
	case *sqlengine.UnaryExpr:
		// Unary minus evaluates 0 - e (strict); NOT does not propagate.
		return x.Op != "NOT" && nullStrictIn(x.E, key)
	case *sqlengine.CastExpr:
		return nullStrictIn(x.E, key)
	case *sqlengine.FuncExpr:
		switch x.Name {
		case "length", "abs", "round", "sqlupper", "sqllower", "substr":
			return len(x.Args) > 0 && nullStrictIn(x.Args[0], key)
		case "trim", "instr":
			for _, a := range x.Args {
				if nullStrictIn(a, key) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// inlineNodeBudget caps translated AST nodes per UDF — templates expand
// once per call site, so an unbounded body would bloat every plan.
const inlineNodeBudget = 96

// inlVal is the symbolic value of one PyLite expression: the engine
// expression computing it, its inferred kind (KindNull = "always
// None"), and whether the null-state analysis has proven it non-NULL.
type inlVal struct {
	e       sqlengine.SQLExpr
	kind    data.Kind
	nonNull bool
}

// inlEnv maps local variable names to symbolic values. Extension is
// copy-on-write so refinements in one If branch never leak to the
// other.
type inlEnv map[string]inlVal

func (env inlEnv) with(name string, v inlVal) inlEnv {
	out := make(inlEnv, len(env)+1)
	for k, val := range env {
		out[k] = val
	}
	out[name] = v
	return out
}

// refined returns env with the named variables marked non-NULL.
func (env inlEnv) refined(names map[string]bool) inlEnv {
	if len(names) == 0 {
		return env
	}
	out := make(inlEnv, len(env))
	for k, val := range env {
		if names[k] {
			val.nonNull = true
		}
		out[k] = val
	}
	return out
}

// inlTranslator carries the node budget through one UDF translation.
type inlTranslator struct {
	budget int
}

func (tr *inlTranslator) spend() error {
	tr.budget--
	if tr.budget < 0 {
		return fmt.Errorf("body too large to inline")
	}
	return nil
}

// block translates a statement sequence to a single expression.
// Conditionals tail-duplicate: `if c: A else: B; rest` becomes
// CASE WHEN c THEN T(A+rest) ELSE T(B+rest) END, which is exactly
// Froid's region collapse for single-return bodies. Falling off the end
// is Python's implicit `return None`.
func (tr *inlTranslator) block(env inlEnv, stmts []pylite.Stmt) (sqlengine.SQLExpr, data.Kind, error) {
	for i, st := range stmts {
		switch s := st.(type) {
		case *pylite.Return:
			if s.Value == nil {
				return &sqlengine.Lit{Value: data.Null}, data.KindNull, nil
			}
			v, err := tr.value(env, s.Value)
			if err != nil {
				return nil, 0, err
			}
			return v.e, v.kind, nil
		case *pylite.Assign:
			if len(s.Targets) != 1 {
				return nil, 0, fmt.Errorf("chained assignment")
			}
			n, ok := s.Targets[0].(*pylite.Name)
			if !ok {
				return nil, 0, fmt.Errorf("assignment to non-name target")
			}
			v, err := tr.value(env, s.Value)
			if err != nil {
				return nil, 0, err
			}
			env = env.with(n.ID, v)
		case *pylite.AugAssign:
			n, ok := s.Target.(*pylite.Name)
			if !ok {
				return nil, 0, fmt.Errorf("augmented assignment to non-name target")
			}
			name := n.ID
			cur, ok := env[name]
			if !ok {
				return nil, 0, fmt.Errorf("augmented assignment to unbound %s", name)
			}
			rhs, err := tr.value(env, s.Value)
			if err != nil {
				return nil, 0, err
			}
			v, err := tr.binOp(s.Op, cur, rhs)
			if err != nil {
				return nil, 0, err
			}
			env = env.with(name, v)
		case *pylite.If:
			cond, refT, refF, err := tr.cond(env, s.Cond)
			if err != nil {
				return nil, 0, err
			}
			rest := stmts[i+1:]
			thenExpr, thenKind, err := tr.block(env.refined(refT), concatStmts(s.Body, rest))
			if err != nil {
				return nil, 0, err
			}
			elseExpr, elseKind, err := tr.block(env.refined(refF), concatStmts(s.Else, rest))
			if err != nil {
				return nil, 0, err
			}
			kind, err := unifyKinds(thenKind, elseKind)
			if err != nil {
				return nil, 0, err
			}
			if err := tr.spend(); err != nil {
				return nil, 0, err
			}
			return &sqlengine.CaseExpr{
				Whens: []sqlengine.SQLExpr{cond},
				Thens: []sqlengine.SQLExpr{thenExpr},
				Else:  elseExpr,
			}, kind, nil
		case *pylite.Pass:
		case *pylite.ExprStmt:
			// Docstrings ride along; any other bare expression is a side
			// effect the translation cannot represent.
			if _, ok := s.Value.(*pylite.Const); !ok {
				return nil, 0, fmt.Errorf("bare expression statement")
			}
		default:
			return nil, 0, errors.New(untranslatable(st))
		}
	}
	return &sqlengine.Lit{Value: data.Null}, data.KindNull, nil
}

func concatStmts(a, b []pylite.Stmt) []pylite.Stmt {
	out := make([]pylite.Stmt, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// unifyKinds merges branch result kinds; KindNull ("always None") is
// the wildcard.
func unifyKinds(a, b data.Kind) (data.Kind, error) {
	switch {
	case a == data.KindNull:
		return b, nil
	case b == data.KindNull, a == b:
		return a, nil
	}
	return 0, fmt.Errorf("branches produce mixed kinds (%s vs %s)", a, b)
}

// cond translates a boolean-context expression. Besides the engine
// condition (whose Truthy matches Python's), it returns the variables
// proven non-NULL when the condition is true (refineThen) and when it
// is false (refineFalse) — the null-state refinements that make guarded
// bodies translatable.
func (tr *inlTranslator) cond(env inlEnv, e pylite.Expr) (cond sqlengine.SQLExpr, refT, refF map[string]bool, err error) {
	switch x := e.(type) {
	case *pylite.BoolOp:
		// Emitted operands are total expressions, so engine AND/OR
		// (Truthy && / || without short-circuit in the vectorized path)
		// is truthiness-equal to Python's short-circuit evaluation. The
		// right operand is translated under the left's refinement —
		// `a is not None and a > 0` needs it.
		l, lt, lf, err := tr.cond(env, x.Left)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := tr.spend(); err != nil {
			return nil, nil, nil, err
		}
		if x.Op == "and" {
			r, rt, _, err := tr.cond(env.refined(lt), x.Right)
			if err != nil {
				return nil, nil, nil, err
			}
			return &sqlengine.BinExpr{Op: "AND", L: l, R: r}, unionNames(lt, rt), nil, nil
		}
		r, _, rf, err := tr.cond(env.refined(lf), x.Right)
		if err != nil {
			return nil, nil, nil, err
		}
		return &sqlengine.BinExpr{Op: "OR", L: l, R: r}, nil, unionNames(lf, rf), nil
	case *pylite.UnaryOp:
		if x.Op == "not" {
			c, t, f, err := tr.cond(env, x.Operand)
			if err != nil {
				return nil, nil, nil, err
			}
			if err := tr.spend(); err != nil {
				return nil, nil, nil, err
			}
			return &sqlengine.UnaryExpr{Op: "NOT", E: c}, f, t, nil
		}
	case *pylite.Compare:
		if len(x.Ops) == 1 && (x.Ops[0] == "is" || x.Ops[0] == "is not") {
			c, ok := x.Comps[0].(*pylite.Const)
			if !ok || !c.Value.IsNull() {
				return nil, nil, nil, fmt.Errorf("is-comparison against non-None")
			}
			v, err := tr.value(env, x.Left)
			if err != nil {
				return nil, nil, nil, err
			}
			if err := tr.spend(); err != nil {
				return nil, nil, nil, err
			}
			not := x.Ops[0] == "is not"
			var refT, refF map[string]bool
			if n, ok := x.Left.(*pylite.Name); ok {
				// `x is None` false ⇒ x non-NULL; `x is not None` true ⇒ same.
				ref := map[string]bool{n.ID: true}
				if not {
					refT = ref
				} else {
					refF = ref
				}
			}
			return &sqlengine.IsNullExpr{E: v.e, Not: not}, refT, refF, nil
		}
	case *pylite.Name:
		v, ok := env[x.ID]
		if !ok {
			return nil, nil, nil, fmt.Errorf("free variable %s", x.ID)
		}
		if err := tr.spend(); err != nil {
			return nil, nil, nil, err
		}
		// Truthiness agrees for every kind (None, 0, "" are falsy on both
		// sides); a truthy value is necessarily non-None.
		return v.e, map[string]bool{x.ID: true}, nil, nil
	}
	v, err := tr.value(env, e)
	if err != nil {
		return nil, nil, nil, err
	}
	return v.e, nil, nil, nil
}

func unionNames(a, b map[string]bool) map[string]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// value translates a PyLite expression in value position.
func (tr *inlTranslator) value(env inlEnv, e pylite.Expr) (inlVal, error) {
	if err := tr.spend(); err != nil {
		return inlVal{}, err
	}
	switch x := e.(type) {
	case *pylite.Const:
		switch x.Value.Kind {
		case data.KindNull, data.KindBool, data.KindInt, data.KindFloat, data.KindString:
			return inlVal{e: &sqlengine.Lit{Value: x.Value}, kind: x.Value.Kind,
				nonNull: x.Value.Kind != data.KindNull}, nil
		}
		return inlVal{}, fmt.Errorf("non-scalar constant")
	case *pylite.Name:
		v, ok := env[x.ID]
		if !ok {
			return inlVal{}, fmt.Errorf("free variable %s", x.ID)
		}
		return v, nil
	case *pylite.BinOp:
		l, err := tr.value(env, x.Left)
		if err != nil {
			return inlVal{}, err
		}
		r, err := tr.value(env, x.Right)
		if err != nil {
			return inlVal{}, err
		}
		return tr.binOp(x.Op, l, r)
	case *pylite.UnaryOp:
		switch x.Op {
		case "-":
			v, err := tr.value(env, x.Operand)
			if err != nil {
				return inlVal{}, err
			}
			// Int only: Float negation diverges on -0.0 rendering.
			if v.kind != data.KindInt || !v.nonNull {
				return inlVal{}, fmt.Errorf("unary minus needs a non-None int")
			}
			return inlVal{e: &sqlengine.UnaryExpr{Op: "-", E: v.e}, kind: data.KindInt, nonNull: true}, nil
		case "not":
			c, _, _, err := tr.cond(env, x.Operand)
			if err != nil {
				return inlVal{}, err
			}
			// Both sides compute Bool(!Truthy(v)) exactly, None included.
			return inlVal{e: &sqlengine.UnaryExpr{Op: "NOT", E: c}, kind: data.KindBool, nonNull: true}, nil
		}
		return inlVal{}, fmt.Errorf("unsupported unary %s", x.Op)
	case *pylite.BoolOp:
		// Python and/or yield an operand value, not a bool, so in value
		// position they only translate when every operand is provably a
		// bool — then the short-circuit result equals the logical result
		// and the condition translation is value-exact (the predicate-UDF
		// shape `return x is not None and x > 0`).
		if boolValued(env, x) {
			c, _, _, err := tr.cond(env, x)
			if err != nil {
				return inlVal{}, err
			}
			return inlVal{e: c, kind: data.KindBool, nonNull: true}, nil
		}
		return inlVal{}, fmt.Errorf("and/or outside a condition")
	case *pylite.Compare:
		if len(x.Ops) == 1 && (x.Ops[0] == "is" || x.Ops[0] == "is not") {
			// Identity tests are bool-valued and total; the condition
			// translator emits IS [NOT] NULL (or rejects non-None).
			c, _, _, err := tr.cond(env, x)
			if err != nil {
				return inlVal{}, err
			}
			return inlVal{e: c, kind: data.KindBool, nonNull: true}, nil
		}
		return tr.compare(env, x)
	case *pylite.IfExp:
		cond, refT, refF, err := tr.cond(env, x.Cond)
		if err != nil {
			return inlVal{}, err
		}
		t, err := tr.value(env.refined(refT), x.Then)
		if err != nil {
			return inlVal{}, err
		}
		f, err := tr.value(env.refined(refF), x.Else)
		if err != nil {
			return inlVal{}, err
		}
		kind, err := unifyKinds(t.kind, f.kind)
		if err != nil {
			return inlVal{}, err
		}
		return inlVal{e: &sqlengine.CaseExpr{
			Whens: []sqlengine.SQLExpr{cond},
			Thens: []sqlengine.SQLExpr{t.e},
			Else:  f.e,
		}, kind: kind, nonNull: t.nonNull && f.nonNull}, nil
	case *pylite.Call:
		return tr.call(env, x)
	}
	return inlVal{}, errors.New(untranslatable(e))
}

// untranslatable names, in words, a statement or expression form the
// translator has no case for, so an opaque verdict reads as the
// construct that caused it.
func untranslatable(n pylite.Node) string {
	switch n.(type) {
	case *pylite.While:
		return "while loop"
	case *pylite.For:
		return "for loop"
	case *pylite.Try:
		return "try/except"
	case *pylite.Raise:
		return "raise statement"
	case *pylite.Global:
		return "global declaration"
	case *pylite.FuncDef:
		return "nested function definition"
	case *pylite.ClassDef:
		return "nested class definition"
	case *pylite.Import:
		return "import statement"
	case *pylite.Del:
		return "del statement"
	case *pylite.Assert:
		return "assert statement"
	case *pylite.Break, *pylite.Continue:
		return "loop control statement"
	case *pylite.Attr:
		return "attribute access outside a method call"
	case *pylite.Index:
		return "subscript expression"
	case *pylite.SliceExpr:
		return "slice expression"
	case *pylite.ListLit, *pylite.TupleLit, *pylite.SetLit, *pylite.DictLit:
		return "container literal"
	case *pylite.Lambda:
		return "lambda expression"
	case *pylite.Comp:
		return "comprehension"
	}
	return "unsupported construct"
}

func isNumericKind(k data.Kind) bool { return k == data.KindInt || k == data.KindFloat }

// boolValued reports whether e's Python value is necessarily a bool
// (not merely truthiness-convertible). Only then may a value-position
// and/or delegate to the condition translator: its emitted expression
// is truthiness-equal to Python's short-circuit result, which for bool
// operands is value-equality. Possibly-None bool names are excluded —
// `None and x` yields None in Python but FALSE under engine AND.
func boolValued(env inlEnv, e pylite.Expr) bool {
	switch x := e.(type) {
	case *pylite.Compare:
		return true
	case *pylite.BoolOp:
		return boolValued(env, x.Left) && boolValued(env, x.Right)
	case *pylite.UnaryOp:
		return x.Op == "not"
	case *pylite.Const:
		return x.Value.Kind == data.KindBool
	case *pylite.Name:
		v, ok := env[x.ID]
		return ok && v.kind == data.KindBool && v.nonNull
	}
	return false
}

// binOp translates arithmetic and concatenation. All strict: PyLite
// raises TypeError on None operands where SQL would propagate NULL, so
// operands must be proven non-NULL.
func (tr *inlTranslator) binOp(op string, l, r inlVal) (inlVal, error) {
	switch op {
	case "+", "-", "*":
		if op == "+" && l.kind == data.KindString && r.kind == data.KindString {
			if !l.nonNull || !r.nonNull {
				return inlVal{}, fmt.Errorf("+ on possibly-None strings")
			}
			return inlVal{e: &sqlengine.BinExpr{Op: "||", L: l.e, R: r.e},
				kind: data.KindString, nonNull: true}, nil
		}
		if !isNumericKind(l.kind) || !isNumericKind(r.kind) {
			return inlVal{}, fmt.Errorf("%s on non-numeric operands", op)
		}
		if !l.nonNull || !r.nonNull {
			return inlVal{}, fmt.Errorf("%s on possibly-None operands", op)
		}
		kind := data.KindInt
		if l.kind == data.KindFloat || r.kind == data.KindFloat {
			kind = data.KindFloat
		}
		return inlVal{e: &sqlengine.BinExpr{Op: op, L: l.e, R: r.e}, kind: kind, nonNull: true}, nil
	case "/":
		// Python / is always float division and raises on zero; the
		// engine's is integer for int operands and yields NULL on zero.
		// Exact only for a nonzero literal divisor with the left side
		// cast to float.
		lit, ok := r.e.(*sqlengine.Lit)
		if !ok || !isNumericKind(lit.Value.Kind) {
			return inlVal{}, fmt.Errorf("/ with non-literal divisor")
		}
		bf, _ := lit.Value.AsFloat()
		if bf == 0 {
			return inlVal{}, fmt.Errorf("/ by literal zero")
		}
		if !isNumericKind(l.kind) || !l.nonNull {
			return inlVal{}, fmt.Errorf("/ on non-numeric or possibly-None operand")
		}
		le := l.e
		if l.kind == data.KindInt {
			le = &sqlengine.CastExpr{E: le, Kind: data.KindFloat}
		}
		return inlVal{e: &sqlengine.BinExpr{Op: "/",
			L: le, R: &sqlengine.Lit{Value: data.Float(bf)}},
			kind: data.KindFloat, nonNull: true}, nil
	}
	return inlVal{}, fmt.Errorf("unsupported operator %s", op)
}

// compare translates comparison chains to AND'd pairs. Every comparison
// is strict — Python None == x is False and None < x raises, while SQL
// NULL-propagates — so operands must be proven non-NULL.
func (tr *inlTranslator) compare(env inlEnv, x *pylite.Compare) (inlVal, error) {
	operands := make([]inlVal, 0, len(x.Comps)+1)
	l, err := tr.value(env, x.Left)
	if err != nil {
		return inlVal{}, err
	}
	operands = append(operands, l)
	for _, c := range x.Comps {
		v, err := tr.value(env, c)
		if err != nil {
			return inlVal{}, err
		}
		operands = append(operands, v)
	}
	var out sqlengine.SQLExpr
	for i, op := range x.Ops {
		a, b := operands[i], operands[i+1]
		var sqlOp string
		switch op {
		case "==":
			sqlOp = "="
		case "!=":
			sqlOp = "!="
		case "<", "<=", ">", ">=":
			// data.Compare must be the comparator on both sides: mixed
			// kinds fall back to textual comparison in SQL but raise in
			// Python, so each pair must be both-numeric or both-string.
			numeric := isNumericKind(a.kind) && isNumericKind(b.kind)
			stringy := a.kind == data.KindString && b.kind == data.KindString
			if !numeric && !stringy {
				return inlVal{}, fmt.Errorf("%s on mixed-kind operands", op)
			}
			sqlOp = op
		default:
			return inlVal{}, fmt.Errorf("unsupported comparison %s", op)
		}
		if !a.nonNull || !b.nonNull {
			return inlVal{}, fmt.Errorf("%s on possibly-None operands", op)
		}
		pair := sqlengine.SQLExpr(&sqlengine.BinExpr{Op: sqlOp, L: a.e, R: b.e})
		if err := tr.spend(); err != nil {
			return inlVal{}, err
		}
		if out == nil {
			out = pair
		} else {
			out = &sqlengine.BinExpr{Op: "AND", L: out, R: pair}
		}
	}
	if out == nil {
		return inlVal{}, fmt.Errorf("empty comparison")
	}
	return inlVal{e: out, kind: data.KindBool, nonNull: true}, nil
}

// pyStripCutset is str.strip()'s default cutset, passed to the engine's
// two-argument trim so both sides run strings.Trim with it.
const pyStripCutset = " \t\n\r"

// call translates the builtin and string-method whitelist. Every entry
// was checked operation-by-operation against the PyLite implementation;
// anything outside the list (or with possibly-None arguments) is
// rejected.
func (tr *inlTranslator) call(env inlEnv, x *pylite.Call) (inlVal, error) {
	if x.StarArg != nil {
		return inlVal{}, fmt.Errorf("starred call argument")
	}
	if len(x.KwNames) > 0 {
		return inlVal{}, fmt.Errorf("keyword call argument")
	}
	args := make([]inlVal, len(x.Args))
	for i, a := range x.Args {
		v, err := tr.value(env, a)
		if err != nil {
			return inlVal{}, err
		}
		args[i] = v
	}
	for _, a := range args {
		if !a.nonNull {
			return inlVal{}, fmt.Errorf("call with possibly-None argument")
		}
	}
	if attr, ok := x.Fn.(*pylite.Attr); ok {
		obj, err := tr.value(env, attr.Obj)
		if err != nil {
			return inlVal{}, err
		}
		if obj.kind != data.KindString || !obj.nonNull {
			return inlVal{}, fmt.Errorf(".%s on non-string or possibly-None object", attr.Name)
		}
		switch {
		case attr.Name == "lower" && len(args) == 0:
			return inlVal{e: &sqlengine.FuncExpr{Name: "sqllower", Args: []sqlengine.SQLExpr{obj.e}},
				kind: data.KindString, nonNull: true}, nil
		case attr.Name == "upper" && len(args) == 0:
			return inlVal{e: &sqlengine.FuncExpr{Name: "sqlupper", Args: []sqlengine.SQLExpr{obj.e}},
				kind: data.KindString, nonNull: true}, nil
		case attr.Name == "strip" && len(args) == 0:
			return inlVal{e: &sqlengine.FuncExpr{Name: "trim", Args: []sqlengine.SQLExpr{
				obj.e, &sqlengine.Lit{Value: data.Str(pyStripCutset)}}},
				kind: data.KindString, nonNull: true}, nil
		}
		return inlVal{}, fmt.Errorf("unsupported string method %s", attr.Name)
	}
	name, ok := x.Fn.(*pylite.Name)
	if !ok {
		return inlVal{}, fmt.Errorf("call through computed function")
	}
	switch {
	case name.ID == "len" && len(args) == 1 && args[0].kind == data.KindString:
		// Both sides count bytes.
		return inlVal{e: &sqlengine.FuncExpr{Name: "length", Args: []sqlengine.SQLExpr{args[0].e}},
			kind: data.KindInt, nonNull: true}, nil
	case name.ID == "abs" && len(args) == 1 && isNumericKind(args[0].kind):
		// Kind-preserving on both sides.
		return inlVal{e: &sqlengine.FuncExpr{Name: "abs", Args: []sqlengine.SQLExpr{args[0].e}},
			kind: args[0].kind, nonNull: true}, nil
	case name.ID == "round" && len(args) == 1 && isNumericKind(args[0].kind):
		// Python round(x) is an int; the engine's is a float. The float
		// is integral, so CAST AS int truncates it exactly.
		return inlVal{e: &sqlengine.CastExpr{Kind: data.KindInt,
			E: &sqlengine.FuncExpr{Name: "round", Args: []sqlengine.SQLExpr{args[0].e}}},
			kind: data.KindInt, nonNull: true}, nil
	case name.ID == "round" && len(args) == 2 && isNumericKind(args[0].kind) && args[1].kind == data.KindInt:
		// Two-argument round runs the identical scale formula both sides.
		return inlVal{e: &sqlengine.FuncExpr{Name: "round", Args: []sqlengine.SQLExpr{args[0].e, args[1].e}},
			kind: data.KindFloat, nonNull: true}, nil
	case name.ID == "str" && len(args) == 1:
		// data.Value.String() is the formatter on both sides.
		return inlVal{e: &sqlengine.CastExpr{E: args[0].e, Kind: data.KindString},
			kind: data.KindString, nonNull: true}, nil
	case name.ID == "int" && len(args) == 1 &&
		(isNumericKind(args[0].kind) || args[0].kind == data.KindBool):
		// Numeric-only: int("x") raises on both bad and padded strings
		// while CAST silently parses or yields 0.
		return inlVal{e: &sqlengine.CastExpr{E: args[0].e, Kind: data.KindInt},
			kind: data.KindInt, nonNull: true}, nil
	case name.ID == "float" && len(args) == 1 && isNumericKind(args[0].kind):
		return inlVal{e: &sqlengine.CastExpr{E: args[0].e, Kind: data.KindFloat},
			kind: data.KindFloat, nonNull: true}, nil
	}
	return inlVal{}, fmt.Errorf("call to non-inlinable %s", name.ID)
}

// ---- call-site rewriting ----

// inlinePass rewrites inlinable scalar-UDF call sites across the bound
// query into engine expressions, records per-UDF decisions on rep, and
// reports whether the rewrite removed every UDF reference (in which
// case the caller skips fusion discovery entirely: tier=inlined).
//
// A "vm" or "closure" tier pin disables the pass (those pins mean "run
// the fusion ladder on that tier"); at "auto" every site whose UDF
// translates and whose kinds check is substituted.
func (qf *QFusor) inlinePass(eng *sqlengine.Engine, q *sqlengine.Query, rep *Report) bool {
	if qf.Opts.Tier == TierVM || qf.Opts.Tier == TierClosure {
		return false
	}
	qf.ic.sync(eng.Catalog)
	st := &inlineState{decisions: map[string]*InlineDecision{}}

	plans := make([]*sqlengine.Plan, 0, len(q.CTEs)+1)
	for i := range q.CTEs {
		plans = append(plans, q.CTEs[i].Plan)
	}
	plans = append(plans, q.Root)
	for _, pr := range plans {
		pr.Walk(func(p *sqlengine.Plan) { qf.inlineNode(p, st) })
	}

	for _, name := range st.order {
		d := st.decisions[name]
		rep.Inlined = append(rep.Inlined, *d)
		if d.Sites > 0 {
			// Pseudo-wrapper entries make the tier visible everywhere
			// Report.Tiers flows (\analyze, flight records, plan cache).
			// breakerKeys skips them — inlined sites have nothing to trip.
			rep.Wrappers = append(rep.Wrappers, "inline:"+name)
			rep.Tiers = append(rep.Tiers, TierInlined)
		}
	}
	if st.sites == 0 {
		return false
	}
	mInlineQueries.Inc()
	mInlineSites.Add(int64(st.sites))
	if q.HasUDF() {
		return false
	}
	mInlineFull.Inc()
	return true
}

// inlineState accumulates one query's decisions across plan nodes.
type inlineState struct {
	decisions map[string]*InlineDecision
	order     []string
	sites     int
}

func (st *inlineState) decision(name string, info *inlineInfo) *InlineDecision {
	if d, ok := st.decisions[name]; ok {
		return d
	}
	d := &InlineDecision{UDF: name, Inlinable: info.template != nil, Reason: info.reason}
	if info.template != nil {
		d.Expr = inlineTemplateString(info.template)
	}
	st.decisions[name] = d
	st.order = append(st.order, name)
	return d
}

// inlineNode rewrites one plan node's expression slots in place. The
// input schema (concatenated child schemas) types column references for
// the argument-kind check.
func (qf *QFusor) inlineNode(p *sqlengine.Plan, st *inlineState) {
	var in data.Schema
	for _, c := range p.Children {
		in = append(in, c.Schema...)
	}
	rw := func(e sqlengine.SQLExpr) sqlengine.SQLExpr {
		if e == nil {
			return nil
		}
		return sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
			return qf.inlineSite(x, in, st)
		})
	}
	for i := range p.Exprs {
		p.Exprs[i] = rw(p.Exprs[i])
	}
	for i := range p.GroupBy {
		p.GroupBy[i] = rw(p.GroupBy[i])
	}
	for i := range p.Aggs {
		if p.Aggs[i].UDF != nil {
			st.decision(p.Aggs[i].UDF.Name, qf.ic.classify(p.Aggs[i].UDF))
		}
		for j := range p.Aggs[i].Args {
			p.Aggs[i].Args[j] = rw(p.Aggs[i].Args[j])
		}
	}
	for i := range p.TFArgs {
		p.TFArgs[i] = rw(p.TFArgs[i])
	}
	for i := range p.SortItems {
		p.SortItems[i].Expr = rw(p.SortItems[i].Expr)
	}
	p.JoinOn = rw(p.JoinOn)
	if p.UDF != nil && !p.UDF.Fused {
		st.decision(p.UDF.Name, qf.ic.classify(p.UDF))
	}
}

// inlineSite substitutes one UDF call when every gate passes:
// classification, the forced-fallback hook, and argument arity and
// kinds.
func (qf *QFusor) inlineSite(x sqlengine.SQLExpr, in data.Schema, st *inlineState) sqlengine.SQLExpr {
	f, ok := x.(*sqlengine.FuncExpr)
	if !ok || f.Star || f.UDF == nil {
		return x
	}
	u := f.UDF
	info := qf.ic.classify(u)
	d := st.decision(u.Name, info)
	if info.template == nil || inlineForceOpaque.Load() {
		return x
	}
	if len(f.Args) != len(u.InKinds) {
		return x
	}
	// Argument kinds must match the kinds the template was typed under
	// (NULL literals are fine — the guards carry them).
	for i, a := range f.Args {
		if k := sqlengine.ExprKind(a, in); k != data.KindNull && k != u.InKinds[i] {
			return x
		}
	}
	out := sqlengine.RewriteExpr(info.template, func(n sqlengine.SQLExpr) sqlengine.SQLExpr {
		c, ok := n.(*sqlengine.ColRef)
		if !ok || c.Table != inlineParamTable {
			return n
		}
		return sqlengine.RewriteExpr(f.Args[c.Index], func(a sqlengine.SQLExpr) sqlengine.SQLExpr { return a })
	})
	// The substitution stands in for a call the binder typed with the
	// UDF's declared kind: it must compute that kind (or only NULLs).
	if k := sqlengine.ExprKind(out, in); k != data.KindNull && k != u.OutKind() {
		return x
	}
	d.Sites++
	st.sites++
	return out
}

// inlineTemplateString renders a template with parameter markers shown
// by bare name (for \analyze and the decision record).
func inlineTemplateString(t sqlengine.SQLExpr) string {
	return sqlengine.RewriteExpr(t, func(n sqlengine.SQLExpr) sqlengine.SQLExpr {
		if c, ok := n.(*sqlengine.ColRef); ok && c.Table == inlineParamTable {
			return &sqlengine.ColRef{Name: c.Name, Index: -1}
		}
		return n
	}).String()
}

// inlineSitesOf totals the substituted call sites recorded on a report.
func inlineSitesOf(rep *Report) int {
	n := 0
	for _, d := range rep.Inlined {
		n += d.Sites
	}
	return n
}
