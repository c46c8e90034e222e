package sqlengine

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

var mVecCSEHits = obs.Default.Counter("engine.vec_cse_hits")

// vecMemo caches evaluated subexpression vectors within one expression
// evaluation (or one projection's worth — see projectChunk), keyed by
// the subtree's index-resolved rendering. Structurally identical pure
// subtrees — which relational inlining produces wholesale, one copy per
// parameter occurrence — evaluate once per batch instead of once per
// occurrence. Entries are shared slices: every consumer of evalVec
// results treats them as read-only.
type vecMemo map[string][]data.Value

// evalVec evaluates a bound expression over all rows of a chunk,
// returning boxed values. Scalar UDF calls are dispatched to the
// engine's transport per column batch; relational operators between
// UDFs therefore materialize intermediates — the overhead QFusor fuses
// away. Compound trees get a fresh CSE memo; callers evaluating several
// expressions over the same chunk share one via evalVecM.
func (e *Engine) evalVec(x SQLExpr, ch *data.Chunk) ([]data.Value, error) {
	var memo vecMemo
	switch x.(type) {
	case *ColRef, *Lit, nil:
	default:
		memo = make(vecMemo)
	}
	return e.evalVecM(x, ch, memo)
}

// evalVecM is evalVec under a caller-scoped CSE memo (nil disables
// memoization). Only pure subtrees are cached: a catalog-UDF call is
// observable (stats, FFI counters, resource ledger), so any subtree
// containing one re-evaluates every time, exactly as before.
func (e *Engine) evalVecM(x SQLExpr, ch *data.Chunk, memo vecMemo) ([]data.Value, error) {
	if memo == nil || !e.cseEligible(x) {
		return e.evalVecNode(x, ch, memo)
	}
	key := vecCSEKey(x)
	if v, ok := memo[key]; ok {
		mVecCSEHits.Inc()
		return v, nil
	}
	v, err := e.evalVecNode(x, ch, memo)
	if err != nil {
		return nil, err
	}
	memo[key] = v
	return v, nil
}

// cseEligible reports whether x is worth caching: anything but a bare
// literal (column references pay a boxing pass per evaluation, so even
// they benefit), provided no catalog UDF hides in the subtree.
func (e *Engine) cseEligible(x SQLExpr) bool {
	switch x.(type) {
	case *Lit, *StarExpr, nil:
		return false
	}
	pure := true
	walkExpr(x, func(n SQLExpr) bool {
		if f, ok := n.(*FuncExpr); ok {
			if _, isUDF := e.Catalog.UDF(f.Name); isUDF {
				pure = false
			}
		}
		return pure
	})
	return pure
}

// vecCSEKey renders x with column references by bound index — two
// columns can share a rendered name (self-joins, subquery aliases), but
// never an index within one node's input schema.
func vecCSEKey(x SQLExpr) string {
	return RewriteExpr(x, func(n SQLExpr) SQLExpr {
		if c, ok := n.(*ColRef); ok {
			return &ColRef{Name: fmt.Sprintf("@%d", c.Index), Index: c.Index}
		}
		return n
	}).String()
}

// ---- single-pass int-arithmetic programs ----
//
// A NULL-strict subtree of + - * / % over int columns and int literals
// needs no per-operator vector passes at all: it lowers to a postfix
// program evaluated once per row on a fixed int64 stack. One output
// allocation replaces one slice per operator — the difference between
// the inlined tier riding the GC and outrunning the closure JIT.
// Strictness makes NULL handling exact: any NULL column leaf (or a
// zero divisor) nulls the whole row's result, which is precisely what
// the generic per-operator evaluation of the same tree produces.

const (
	ipCol = iota // push column value (NULL leaf -> row is NULL)
	ipLit        // push literal
	ipAdd
	ipSub
	ipMul
	ipDiv // zero divisor -> row is NULL
	ipMod // zero divisor -> row is NULL
)

type intInstr struct {
	code int8
	col  int
	lit  int64
}

// compileIntProg lowers x to postfix instructions, returning ok=false
// on any node outside the int-arithmetic fragment.
func compileIntProg(x SQLExpr, ch *data.Chunk, prog []intInstr) ([]intInstr, bool) {
	switch ex := x.(type) {
	case *ColRef:
		if ex.Index < 0 || ex.Index >= len(ch.Cols) || ch.Cols[ex.Index].Kind != data.KindInt {
			return prog, false
		}
		return append(prog, intInstr{code: ipCol, col: ex.Index}), true
	case *Lit:
		if ex.Value.Kind != data.KindInt {
			return prog, false
		}
		return append(prog, intInstr{code: ipLit, lit: ex.Value.I}), true
	case *UnaryExpr:
		if ex.Op == "NOT" {
			return prog, false
		}
		// Unary minus evaluates as 0 - e, same as the generic path.
		prog = append(prog, intInstr{code: ipLit})
		prog, ok := compileIntProg(ex.E, ch, prog)
		if !ok {
			return prog, false
		}
		return append(prog, intInstr{code: ipSub}), true
	case *BinExpr:
		var code int8
		switch ex.Op {
		case "+":
			code = ipAdd
		case "-":
			code = ipSub
		case "*":
			code = ipMul
		case "/":
			code = ipDiv
		case "%":
			code = ipMod
		default:
			return prog, false
		}
		prog, ok := compileIntProg(ex.L, ch, prog)
		if !ok {
			return prog, false
		}
		prog, ok = compileIntProg(ex.R, ch, prog)
		if !ok {
			return prog, false
		}
		return append(prog, intInstr{code: code}), true
	}
	return prog, false
}

// intProgDepth is the maximum stack depth the program reaches.
func intProgDepth(prog []intInstr) int {
	sp, max := 0, 0
	for _, in := range prog {
		switch in.code {
		case ipCol, ipLit:
			sp++
			if sp > max {
				max = sp
			}
		default:
			sp--
		}
	}
	return max
}

// evalIntProg compiles and runs x as a single-pass int program over
// the chunk; ok=false means x is outside the fragment (or too deep)
// and the caller should evaluate it generically.
func evalIntProg(x SQLExpr, ch *data.Chunk) ([]data.Value, bool) {
	prog, ok := compileIntProg(x, ch, make([]intInstr, 0, 16))
	if !ok || len(prog) < 3 {
		return nil, false
	}
	const maxDepth = 32
	if intProgDepth(prog) > maxDepth {
		return nil, false
	}
	n := ch.NumRows()
	out := make([]data.Value, n)
	var stack [maxDepth]int64
rows:
	for i := 0; i < n; i++ {
		sp := 0
		for _, in := range prog {
			switch in.code {
			case ipCol:
				c := ch.Cols[in.col]
				if c.Nulls != nil && c.Nulls[i] {
					continue rows // out[i] stays data.Null
				}
				stack[sp] = c.Ints[i]
				sp++
			case ipLit:
				stack[sp] = in.lit
				sp++
			case ipAdd:
				sp--
				stack[sp-1] += stack[sp]
			case ipSub:
				sp--
				stack[sp-1] -= stack[sp]
			case ipMul:
				sp--
				stack[sp-1] *= stack[sp]
			case ipDiv:
				sp--
				if stack[sp] == 0 {
					continue rows
				}
				stack[sp-1] /= stack[sp]
			case ipMod:
				sp--
				if stack[sp] == 0 {
					continue rows
				}
				stack[sp-1] %= stack[sp]
			}
		}
		out[i] = data.Int(stack[0])
	}
	return out, true
}

// vecIntArith is the columnar fast path for arithmetic over int
// vectors: operator dispatch hoisted out of the row loop, native int64
// math on the boxed payloads, no float round-trip. NULL in either
// operand yields NULL (same as sqlBinOp); division by zero yields NULL
// (same as sqlArith). The moment a non-int, non-NULL operand appears
// it bails with ok=false and the caller re-runs the whole batch
// through the generic per-row evaluator.
func vecIntArith(op string, l, r []data.Value) ([]data.Value, bool) {
	var f func(a, b int64) data.Value
	switch op {
	case "+":
		f = func(a, b int64) data.Value { return data.Int(a + b) }
	case "-":
		f = func(a, b int64) data.Value { return data.Int(a - b) }
	case "*":
		f = func(a, b int64) data.Value { return data.Int(a * b) }
	case "/":
		f = func(a, b int64) data.Value {
			if b == 0 {
				return data.Null
			}
			return data.Int(a / b)
		}
	case "%":
		f = func(a, b int64) data.Value {
			if b == 0 {
				return data.Null
			}
			return data.Int(a % b)
		}
	default:
		return nil, false
	}
	out := make([]data.Value, len(l))
	for i := range l {
		a, b := l[i], r[i]
		if a.Kind == data.KindNull || b.Kind == data.KindNull {
			continue // out[i] is already data.Null
		}
		if a.Kind != data.KindInt || b.Kind != data.KindInt {
			return nil, false
		}
		out[i] = f(a.I, b.I)
	}
	return out, true
}

func (e *Engine) evalVecNode(x SQLExpr, ch *data.Chunk, memo vecMemo) ([]data.Value, error) {
	n := ch.NumRows()
	switch ex := x.(type) {
	case *ColRef:
		if ex.Index < 0 || ex.Index >= len(ch.Cols) {
			return nil, fmt.Errorf("sql: unbound column %s", ex)
		}
		return ffi.BoxColumn(ch.Cols[ex.Index], n), nil
	case *Lit:
		out := make([]data.Value, n)
		for i := range out {
			out[i] = ex.Value
		}
		return out, nil
	case *FuncExpr:
		if u, ok := e.udf(ex.Name); ok && u.Kind == ffi.Scalar {
			return e.evalScalarUDFVec(u, ex, ch, memo)
		}
		// Native scalar: vector args, row-native application.
		argVecs := make([][]data.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.evalVecM(a, ch, memo)
			if err != nil {
				return nil, err
			}
			argVecs[i] = v
		}
		out := make([]data.Value, n)
		row := make([]data.Value, len(argVecs))
		for i := 0; i < n; i++ {
			for j := range argVecs {
				row[j] = argVecs[j][i]
			}
			v, err := evalNativeScalar(ex.Name, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *BinExpr:
		if out, ok := evalIntProg(ex, ch); ok {
			return out, nil
		}
		l, err := e.evalVecM(ex.L, ch, memo)
		if err != nil {
			return nil, err
		}
		r, err := e.evalVecM(ex.R, ch, memo)
		if err != nil {
			return nil, err
		}
		if out, ok := vecIntArith(ex.Op, l, r); ok {
			return out, nil
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			v, err := sqlBinOp(ex.Op, l[i], r[i])
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *UnaryExpr:
		v, err := e.evalVecM(ex.E, ch, memo)
		if err != nil {
			return nil, err
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			if ex.Op == "NOT" {
				out[i] = data.Bool(!v[i].Truthy())
			} else {
				nv, err := sqlBinOp("-", data.Int(0), v[i])
				if err != nil {
					return nil, err
				}
				out[i] = nv
			}
		}
		return out, nil
	case *CaseExpr:
		// Operator-at-a-time CASE: all branches evaluated fully, then
		// merged (faithful to columnar engines; the row executor
		// short-circuits instead).
		var operand []data.Value
		if ex.Operand != nil {
			v, err := e.evalVecM(ex.Operand, ch, memo)
			if err != nil {
				return nil, err
			}
			operand = v
		}
		conds := make([][]data.Value, len(ex.Whens))
		thens := make([][]data.Value, len(ex.Thens))
		for i := range ex.Whens {
			cv, err := e.evalVecM(ex.Whens[i], ch, memo)
			if err != nil {
				return nil, err
			}
			conds[i] = cv
			tv, err := e.evalVecM(ex.Thens[i], ch, memo)
			if err != nil {
				return nil, err
			}
			thens[i] = tv
		}
		var els []data.Value
		if ex.Else != nil {
			v, err := e.evalVecM(ex.Else, ch, memo)
			if err != nil {
				return nil, err
			}
			els = v
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			matched := false
			for b := range conds {
				hit := false
				if operand != nil {
					hit = data.Equal(operand[i], conds[b][i])
				} else {
					hit = conds[b][i].Truthy()
				}
				if hit {
					out[i] = thens[b][i]
					matched = true
					break
				}
			}
			if !matched {
				if els != nil {
					out[i] = els[i]
				} else {
					out[i] = data.Null
				}
			}
		}
		return out, nil
	case *BetweenExpr:
		v, err := e.evalVecM(ex.E, ch, memo)
		if err != nil {
			return nil, err
		}
		lo, err := e.evalVecM(ex.Lo, ch, memo)
		if err != nil {
			return nil, err
		}
		hi, err := e.evalVecM(ex.Hi, ch, memo)
		if err != nil {
			return nil, err
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			if v[i].IsNull() || lo[i].IsNull() || hi[i].IsNull() {
				out[i] = data.Null
				continue
			}
			ge, _ := sqlBinOp(">=", v[i], lo[i])
			le, _ := sqlBinOp("<=", v[i], hi[i])
			res := ge.Truthy() && le.Truthy()
			if ex.Not {
				res = !res
			}
			out[i] = data.Bool(res)
		}
		return out, nil
	case *InExpr:
		v, err := e.evalVecM(ex.E, ch, memo)
		if err != nil {
			return nil, err
		}
		lists := make([][]data.Value, len(ex.List))
		for i, item := range ex.List {
			lv, err := e.evalVecM(item, ch, memo)
			if err != nil {
				return nil, err
			}
			lists[i] = lv
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			found := false
			for _, lv := range lists {
				if data.Equal(v[i], lv[i]) {
					found = true
					break
				}
			}
			if ex.Not {
				found = !found
			}
			out[i] = data.Bool(found)
		}
		return out, nil
	case *IsNullExpr:
		v, err := e.evalVecM(ex.E, ch, memo)
		if err != nil {
			return nil, err
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			isNull := v[i].IsNull()
			if ex.Not {
				isNull = !isNull
			}
			out[i] = data.Bool(isNull)
		}
		return out, nil
	case *CastExpr:
		v, err := e.evalVecM(ex.E, ch, memo)
		if err != nil {
			return nil, err
		}
		out := make([]data.Value, n)
		for i := 0; i < n; i++ {
			out[i] = castValue(v[i], ex.Kind)
		}
		return out, nil
	}
	return nil, fmt.Errorf("sql: cannot vectorize %T", x)
}

// evalScalarUDFVec crosses into the UDF environment once per batch:
// arguments become engine columns (materializing + serializing any
// intermediate UDF results) and the transport converts back.
func (e *Engine) evalScalarUDFVec(u *ffi.UDF, ex *FuncExpr, ch *data.Chunk, memo vecMemo) ([]data.Value, error) {
	n := ch.NumRows()
	argCols := make([]*data.Column, len(ex.Args))
	for i, a := range ex.Args {
		// Direct column references avoid an extra copy (the engine hands
		// the UDF its own column, like MonetDB passing a BAT pointer).
		if cr, ok := a.(*ColRef); ok {
			argCols[i] = ch.Cols[cr.Index]
			continue
		}
		vals, err := e.evalVecM(a, ch, memo)
		if err != nil {
			return nil, err
		}
		kind := data.KindString
		if i < len(u.InKinds) {
			kind = u.InKinds[i]
		} else {
			for _, v := range vals {
				if !v.IsNull() {
					kind = v.Kind
					break
				}
			}
		}
		// Intermediate materialization: the nested expression's result
		// becomes a real engine column (serializing lists/dicts to JSON).
		argCols[i] = ffi.UnboxValues(fmt.Sprintf("a%d", i), kind, vals)
	}
	if u.Fused {
		// Fused wrapper: one boundary crossing, the loop runs inside the
		// UDF runtime as a single trace.
		cols, err := ffi.CallFusedVector(u, argCols, n, []string{u.Name}, []data.Kind{u.OutKind()})
		if err != nil {
			return nil, err
		}
		return ffi.BoxColumn(cols[0], cols[0].Len()), nil
	}
	out, err := e.Invoker.CallScalar(u, argCols, n)
	if err != nil {
		return nil, err
	}
	return ffi.BoxColumn(out, n), nil
}

// evalBoolVec evaluates a predicate over a chunk with unboxed fast
// paths for simple column comparisons (the engine-native filter the
// offloading experiments compare against).
func (e *Engine) evalBoolVec(x SQLExpr, ch *data.Chunk) ([]bool, error) {
	n := ch.NumRows()
	switch ex := x.(type) {
	case *BinExpr:
		switch ex.Op {
		case "AND":
			l, err := e.evalBoolVec(ex.L, ch)
			if err != nil {
				return nil, err
			}
			r, err := e.evalBoolVec(ex.R, ch)
			if err != nil {
				return nil, err
			}
			for i := range l {
				l[i] = l[i] && r[i]
			}
			return l, nil
		case "OR":
			l, err := e.evalBoolVec(ex.L, ch)
			if err != nil {
				return nil, err
			}
			r, err := e.evalBoolVec(ex.R, ch)
			if err != nil {
				return nil, err
			}
			for i := range l {
				l[i] = l[i] || r[i]
			}
			return l, nil
		case "=", "!=", "<", "<=", ">", ">=":
			if out, ok, err := e.fastCompare(ex, ch); err != nil {
				return nil, err
			} else if ok {
				return out, nil
			}
		}
	case *UnaryExpr:
		if ex.Op == "NOT" {
			v, err := e.evalBoolVec(ex.E, ch)
			if err != nil {
				return nil, err
			}
			for i := range v {
				v[i] = !v[i]
			}
			return v, nil
		}
	}
	vals, err := e.evalVec(x, ch)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	for i, v := range vals {
		out[i] = v.Truthy()
	}
	return out, nil
}

// fastCompare handles col-vs-literal and col-vs-col comparisons without
// boxing. ok=false means the shape didn't match and the caller should
// fall back.
func (e *Engine) fastCompare(ex *BinExpr, ch *data.Chunk) ([]bool, bool, error) {
	lc, lok := ex.L.(*ColRef)
	rc, rok := ex.R.(*ColRef)
	llit, llok := ex.L.(*Lit)
	rlit, rlok := ex.R.(*Lit)
	n := ch.NumRows()
	cmp := func(c int) bool {
		switch ex.Op {
		case "=":
			return c == 0
		case "!=":
			return c != 0
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		default:
			return c >= 0
		}
	}
	switch {
	case lok && rlok:
		col := ch.Cols[lc.Index]
		return compareColLit(col, rlit.Value, n, cmp, false)
	case rok && llok:
		col := ch.Cols[rc.Index]
		return compareColLit(col, llit.Value, n, cmp, true)
	case lok && rok:
		a, b := ch.Cols[lc.Index], ch.Cols[rc.Index]
		if a.Kind != b.Kind {
			return nil, false, nil
		}
		out := make([]bool, n)
		switch a.Kind {
		case data.KindInt:
			for i := 0; i < n; i++ {
				if a.IsNull(i) || b.IsNull(i) {
					continue
				}
				out[i] = cmp(compareInt(a.Ints[i], b.Ints[i]))
			}
		case data.KindFloat:
			for i := 0; i < n; i++ {
				if a.IsNull(i) || b.IsNull(i) {
					continue
				}
				out[i] = cmp(compareFloat(a.Floats[i], b.Floats[i]))
			}
		case data.KindString:
			for i := 0; i < n; i++ {
				if a.IsNull(i) || b.IsNull(i) {
					continue
				}
				out[i] = cmp(compareStr(a.Strs[i], b.Strs[i]))
			}
		default:
			return nil, false, nil
		}
		return out, true, nil
	}
	return nil, false, nil
}

func compareColLit(col *data.Column, lit data.Value, n int, cmp func(int) bool, flip bool) ([]bool, bool, error) {
	apply := func(c int) bool {
		if flip {
			c = -c
		}
		return cmp(c)
	}
	out := make([]bool, n)
	switch {
	case col.Kind == data.KindInt && (lit.Kind == data.KindInt || lit.Kind == data.KindBool):
		v := lit.I
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			out[i] = apply(compareInt(col.Ints[i], v))
		}
	case col.Kind == data.KindFloat && lit.Kind == data.KindFloat:
		v := lit.F
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			out[i] = apply(compareFloat(col.Floats[i], v))
		}
	case col.Kind == data.KindFloat && lit.Kind == data.KindInt:
		v := float64(lit.I)
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			out[i] = apply(compareFloat(col.Floats[i], v))
		}
	case col.Kind == data.KindInt && lit.Kind == data.KindFloat:
		v := lit.F
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			out[i] = apply(compareFloat(float64(col.Ints[i]), v))
		}
	case col.Kind == data.KindString && lit.Kind == data.KindString:
		v := lit.S
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				continue
			}
			out[i] = apply(compareStr(col.Strs[i], v))
		}
	default:
		return nil, false, nil
	}
	return out, true, nil
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
