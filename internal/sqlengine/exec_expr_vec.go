package sqlengine

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

var (
	mVecCSEHits   = obs.Default.Counter("engine.vec_cse_hits")
	mExprCompiles = obs.Default.Counter("engine.expr_compiles")
)

// The columnar executors evaluate expressions as one compiled register
// program per plan node. compile runs once per node per statement, over
// the node's bound expressions and its input's column kinds; run then
// evaluates the program over each morsel and returns typed columns.
//
// A frame slot holds a column: the input chunk's columns come first,
// each literal is a one-row constant column (never n copies), and every
// instruction fills the next slot. An instruction is a typed kernel over
// []int64/[]float64/[]string/[]bool plus a null mask when its operands'
// kinds allow one, a scalar-UDF call (argument columns in, the
// transport's result column out), or else the one generic instruction,
// which applies evalRow — the single definition of SQL scalar semantics
// — per row with the node's children bound to slots. A slot's kind is
// KindOf over its operands' kinds, the rule the binder typed the
// expression with, and the choice of instruction is made from those
// kinds alone. A pure subtree that repeats compiles to the same slot; a
// subtree containing a catalog-UDF call is observable (stats, FFI
// counters, ledger) and is never shared.
type exprProg struct {
	e      *Engine
	kinds  []data.Kind    // static kind per frame slot (KindNull: NULL on every row)
	consts []*data.Column // per slot: a literal's one-row column, else nil
	instrs []instr
	roots  []int // result slot per compiled expression
	shared int32 // subtree evaluations that register reuse avoids per run

	started bool // a run has begun: the next ones keep scratch
	mu      sync.Mutex
	idle    [][]scratch // scratch that finished runs returned
}

type opcode uint8

const (
	opGeneric opcode = iota // evalRow over node, slots bound as columns
	opArith                 // + - * / % over two ints or two floats
	opCompare               // = != < <= > >= over two ints, floats or strings
	opLogic                 // AND / OR over two bools
	opNot
	opCase    // searched CASE; args: when, then, ..., else
	opBetween // args: value>=low, value<=high; NULL when either is
	opIsNull
	opCast // int <-> float
	opUDF
)

type instr struct {
	op   opcode
	out  int
	args []int    // operand slots
	sym  string   // opArith, opCompare, opLogic: the SQL operator
	not  bool     // opBetween, opIsNull: the negated form
	node SQLExpr  // opGeneric: the expression, ColRef.Index = frame slot
	udf  *ffi.UDF // opUDF: the statement's clone
}

// ---- compile ----

// compiler lowers bound expressions into p. A compiled value is its slot,
// as the expression &ColRef{Index: slot}.
type compiler struct {
	p    *exprProg
	in   *data.Chunk
	pure []bool         // per slot: no catalog-UDF call below it
	memo map[string]int // rendering of a pure node over its operand slots -> slot
}

// compile lowers xs against in's column kinds. want[i], when not
// KindNull, is the kind result i must have (a projection's schema kind,
// KindBool for a predicate); otherwise a result keeps its own kind.
func (e *Engine) compile(in *data.Chunk, xs []SQLExpr, want []data.Kind) (*exprProg, error) {
	mExprCompiles.Inc()
	c := newCompiler(e, in)
	for i, x := range xs {
		t, err := c.expr(x)
		if err != nil {
			return nil, err
		}
		c.p.roots = append(c.p.roots, c.fit(t, want[i]).(*ColRef).Index)
	}
	return c.p, nil
}

func newCompiler(e *Engine, in *data.Chunk) *compiler {
	c := &compiler{p: &exprProg{e: e}, in: in, memo: make(map[string]int)}
	for _, col := range in.Cols {
		c.slot(col.Kind, nil, true)
	}
	return c
}

// evalVec compiles and evaluates one expression over a whole chunk (the
// DML predicates; operators that run morsels compile once and run per
// morsel).
func (e *Engine) evalVec(x SQLExpr, ch *data.Chunk, want data.Kind) (*data.Column, error) {
	p, err := e.compile(ch, []SQLExpr{x}, []data.Kind{want})
	if err != nil {
		return nil, err
	}
	cols, err := p.run(ch)
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// ref is slot s as an expression; the name is what keys render.
func ref(s int) SQLExpr { return &ColRef{Name: "@" + strconv.Itoa(s), Index: s} }

func (c *compiler) slot(k data.Kind, con *data.Column, pure bool) SQLExpr {
	c.p.kinds = append(c.p.kinds, k)
	c.p.consts = append(c.p.consts, con)
	c.pure = append(c.pure, pure)
	return ref(len(c.p.kinds) - 1)
}

func (c *compiler) kindOf(t SQLExpr) data.Kind { return c.p.kinds[t.(*ColRef).Index] }

// kindsAre reports whether every slot in ts holds kind k or is NULL on
// every row.
func (c *compiler) kindsAre(k data.Kind, ts ...SQLExpr) bool {
	for _, t := range ts {
		if tk := c.kindOf(t); tk != k && tk != data.KindNull {
			return false
		}
	}
	return true
}

// slotsOf lists the slots t reads, in walk order, and whether all are pure.
func (c *compiler) slotsOf(t SQLExpr) (slots []int, pure bool) {
	pure = true
	walkExpr(t, func(n SQLExpr) bool {
		if cr, ok := n.(*ColRef); ok {
			slots = append(slots, cr.Index)
			pure = pure && c.pure[cr.Index]
		}
		return true
	})
	return slots, pure
}

// emit appends an instruction computing node t at kind k and returns its
// slot; a pure one is remembered under key for reuse.
func (c *compiler) emit(in instr, t SQLExpr, k data.Kind, key string) SQLExpr {
	var pure bool
	in.args, pure = c.slotsOf(t)
	pure = pure && in.op != opUDF
	if in.op == opGeneric {
		in.node = t
	}
	out := c.slot(k, nil, pure)
	in.out = out.(*ColRef).Index
	c.p.instrs = append(c.p.instrs, in)
	if pure {
		c.memo[key] = in.out
	}
	return out
}

// fit returns slot t at the kind its consumer stores — a projection's
// schema kind, bool for a predicate, a UDF's declared parameter kind —
// through a generic instruction that converts the way Column.AppendValue
// does; KindNull wants t as it is.
func (c *compiler) fit(t SQLExpr, want data.Kind) SQLExpr {
	if want == data.KindNull || c.kindOf(t) == want {
		return t
	}
	return c.emit(instr{}, t, want, fmt.Sprintf("fit %s %s", want, t))
}

func (c *compiler) lit(v data.Value) SQLExpr {
	key := "lit " + (&Lit{Value: v}).String()
	if s, ok := c.memo[key]; ok {
		return ref(s)
	}
	col := data.NewColumn("", v.Kind)
	col.AppendValue(v)
	t := c.slot(v.Kind, col, true)
	c.memo[key] = t.(*ColRef).Index
	return t
}

// expr compiles x and returns its slot.
func (c *compiler) expr(x SQLExpr) (SQLExpr, error) {
	switch ex := x.(type) {
	case *ColRef:
		if ex.Index < 0 || ex.Index >= len(c.in.Cols) {
			return nil, fmt.Errorf("sql: unbound column %s", ex)
		}
		return ref(ex.Index), nil
	case *Lit:
		return c.lit(ex.Value), nil
	case *UnaryExpr:
		if ex.Op != "NOT" {
			// Unary minus is 0 - e, as in evalRow.
			return c.expr(&BinExpr{Op: "-", L: &Lit{Value: data.Int(0)}, R: ex.E})
		}
	case *FuncExpr:
		if u, ok := c.p.e.udf(ex.Name); ok && u.Kind == ffi.Scalar {
			return c.call(u, ex)
		}
	case *StarExpr, nil:
		return nil, fmt.Errorf("sql: cannot vectorize %T", x)
	}
	var err error
	sh := mapChildren(x, func(k SQLExpr) SQLExpr {
		t, kerr := c.expr(k)
		if kerr != nil {
			err = kerr
			return k
		}
		return t
	})
	if err != nil {
		return nil, err
	}
	return c.node(sh), nil
}

// call compiles a scalar-UDF call. An argument that is a column of the
// input passes as it is (the engine hands the UDF its own column, like
// MonetDB passing a BAT pointer); a computed one is materialized at the
// UDF's declared parameter kind.
func (c *compiler) call(u *ffi.UDF, ex *FuncExpr) (SQLExpr, error) {
	sh := &FuncExpr{Name: ex.Name, Args: make([]SQLExpr, len(ex.Args))}
	for i, a := range ex.Args {
		t, err := c.expr(a)
		if err != nil {
			return nil, err
		}
		want := data.KindNull
		if cr, ok := t.(*ColRef); !(ok && cr.Index < len(c.in.Cols)) && i < len(u.InKinds) {
			want = u.InKinds[i]
		}
		sh.Args[i] = c.fit(t, want)
	}
	return c.emit(instr{op: opUDF, udf: u}, sh, u.OutKind(), ""), nil
}

// node picks the instruction for sh, a node whose children are already
// compiled: a typed kernel when the operand kinds allow one, else the
// generic instruction. Either fills a slot of the kind KindOf gives sh.
func (c *compiler) node(sh SQLExpr) SQLExpr {
	key := sh.String()
	if s, ok := c.memo[key]; ok {
		c.p.shared++
		return ref(s)
	}
	kind := KindOf(c.p.e.Catalog, sh, c.kindOf)
	var in instr // the generic instruction unless a kernel fits
	switch x := sh.(type) {
	case *BinExpr:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			if k := c.unify(&x.L, &x.R); k == data.KindInt || k == data.KindFloat {
				in = instr{op: opArith, sym: x.Op}
			}
		case "=", "!=", "<", "<=", ">", ">=":
			if k := c.unify(&x.L, &x.R); k == data.KindInt || k == data.KindFloat || k == data.KindString {
				in = instr{op: opCompare, sym: x.Op}
			}
		case "AND", "OR":
			if c.kindsAre(data.KindBool, x.L, x.R) {
				in = instr{op: opLogic, sym: x.Op}
			}
		}
	case *UnaryExpr: // NOT; minus was rewritten by expr
		if c.kindOf(x.E) == data.KindBool {
			in = instr{op: opNot}
		}
	case *CaseExpr:
		if x.Else == nil {
			x.Else = c.lit(data.Null) // a missing ELSE is ELSE NULL
		}
		if x.Operand == nil && len(x.Whens) <= math.MaxUint8 && isScalarKind(kind) &&
			c.kindsAre(data.KindBool, x.Whens...) && c.kindsAre(kind, x.Thens...) && c.kindsAre(kind, x.Else) {
			in = instr{op: opCase}
		}
	case *BetweenExpr:
		// E>=Lo AND E<=Hi, NULL when any of the three is. Each bound meets
		// E in a comparison of its own, so a float bound does not make
		// the other, int one compare through float64.
		ge := c.node(&BinExpr{Op: ">=", L: x.E, R: x.Lo})
		le := c.node(&BinExpr{Op: "<=", L: x.E, R: x.Hi})
		sh, in = &BinExpr{Op: "BETWEEN", L: ge, R: le}, instr{op: opBetween, not: x.Not}
	case *IsNullExpr:
		in = instr{op: opIsNull, not: x.Not}
	case *CastExpr:
		switch from := c.kindOf(x.E); {
		case from == x.Kind:
			return x.E
		case from == data.KindInt && x.Kind == data.KindFloat, from == data.KindFloat && x.Kind == data.KindInt:
			in = instr{op: opCast}
		}
	}
	return c.emit(in, sh, kind, key)
}

func isScalarKind(k data.Kind) bool {
	return k == data.KindInt || k == data.KindFloat || k == data.KindString || k == data.KindBool
}

// unify promotes an int operand meeting a float one to float, as sqlArith
// and data.Compare compute it, so that both reach one typed kernel; it
// returns the operands' kind, KindNull when they still differ.
func (c *compiler) unify(l, r *SQLExpr) data.Kind {
	lk, rk := c.kindOf(*l), c.kindOf(*r)
	switch {
	case lk == data.KindInt && rk == data.KindFloat:
		*l, lk = c.toFloat(*l), rk
	case lk == data.KindFloat && rk == data.KindInt:
		*r, rk = c.toFloat(*r), lk
	}
	if lk != rk {
		return data.KindNull
	}
	return lk
}

// toFloat is int slot t as a float: a constant converts now, a column
// through a cast instruction.
func (c *compiler) toFloat(t SQLExpr) SQLExpr {
	if con := c.p.consts[t.(*ColRef).Index]; con != nil {
		return c.lit(data.Float(float64(con.Ints[0])))
	}
	return c.node(&CastExpr{E: t, Kind: data.KindFloat})
}

// ---- run ----

// callUDF is the one real crossing: arguments are engine columns, the
// transport boxes them, runs the UDF and unboxes its results. It runs on
// a clone of the statement's UDF, folded back when it returns: the
// program may run on several morsel workers at once, and a clone's
// interpreter view belongs to one goroutine (one span, one clone, one
// crossing, like a fused section's).
func (p *exprProg) callUDF(u *ffi.UDF, args []*data.Column, n int, kind data.Kind) (*data.Column, error) {
	cu := u.WorkerClone()
	defer u.AbsorbWorker(cu)
	if u.Fused {
		// Fused wrapper: one boundary crossing, the loop runs inside
		// the UDF runtime as a single trace.
		cols, err := ffi.CallFusedVector(cu, args, n, []string{u.Name}, []data.Kind{kind})
		if err != nil {
			return nil, err
		}
		return cols[0], nil
	}
	return p.e.Invoker.CallScalar(cu, args, n)
}

// vec is an operand at run time: a column, and the mask that indexes it
// (-1: one row per input row; 0: a one-row constant). kept marks a
// recycled slot's column, whose storage the next morsel overwrites.
type vec struct {
	*data.Column
	mask int
	kept bool
}

// A frame holds one run's slots. A program keeps the scratch its runs
// return for its next runs (one set per worker), and from its second run
// on a non-root slot that a typed kernel writes is kept: the kernel
// reuses the slot's storage from the previous morsel. A root leaves the
// run, so it gets fresh storage and never shares a kept slot's mask.
type frame struct {
	p    *exprProg
	cols []*data.Column
	n    int
	bufs []scratch // per slot; nil on the program's first run
	tmp  scratch   // fresh storage, emptied for each use
}

// scratch is the storage one slot keeps between runs.
type scratch struct {
	col    data.Column // a kept slot's result: its payload is owned, its mask may be shared
	nulls  []bool      // an owned null mask
	truths []bool      // the slot read as a predicate
	which  []uint8     // CASE: the branch each row takes
	kept   bool        // the slot is a non-root kernel result, recycled as col
}

// scratch takes the scratch a finished run returned, or makes a set; a
// program's first run gets none, so a program that runs once makes none.
func (p *exprProg) scratch() []scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.idle); k > 0 {
		bufs := p.idle[k-1]
		p.idle = p.idle[:k-1]
		return bufs
	}
	if !p.started {
		p.started = true
		return nil
	}
	bufs := make([]scratch, len(p.kinds))
	for _, in := range p.instrs {
		bufs[in.out].kept = in.op != opGeneric && in.op != opUDF
	}
	for _, s := range p.roots {
		bufs[s].kept = false
	}
	return bufs
}

// buf is slot s's scratch, or fresh storage on the program's first run.
func (f *frame) buf(s int) *scratch {
	if f.bufs == nil {
		return f.fresh()
	}
	return &f.bufs[s]
}

// fresh is empty scratch, whose storage leaves with what it holds.
func (f *frame) fresh() *scratch {
	f.tmp = scratch{}
	return &f.tmp
}

func (f *frame) at(s int) vec {
	if f.p.consts[s] != nil {
		return vec{Column: f.cols[s]}
	}
	return vec{Column: f.cols[s], mask: -1, kept: f.bufs != nil && f.bufs[s].kept}
}

// full returns slot s as a column of n rows (a constant is broadcast).
func (f *frame) full(s int) *data.Column {
	if v := f.at(s); v.mask == 0 {
		return v.Take(make([]int, f.n))
	}
	return f.cols[s]
}

// run evaluates the program over one morsel and returns one column per
// compiled expression. A result may be a column of ch itself, or share
// storage with one: results are read-only.
func (p *exprProg) run(ch *data.Chunk) ([]*data.Column, error) {
	f := &frame{p: p, cols: append([]*data.Column(nil), p.consts...), n: ch.NumRows(), bufs: p.scratch()}
	copy(f.cols, ch.Cols)
	if f.bufs != nil {
		defer func() { // back to the program, for the next morsel
			p.mu.Lock()
			p.idle = append(p.idle, f.bufs)
			p.mu.Unlock()
		}()
	}
	for i := range p.instrs {
		in := &p.instrs[i]
		col, err := p.exec(in, f)
		if err != nil {
			return nil, err
		}
		f.cols[in.out] = col
	}
	mVecCSEHits.Add(int64(p.shared))
	outs := make([]*data.Column, len(p.roots))
	for i, s := range p.roots {
		outs[i] = f.full(s)
	}
	return outs, nil
}

func (p *exprProg) exec(in *instr, f *frame) (*data.Column, error) {
	n := f.n
	// A kept slot's kernel writes over its column from the previous
	// morsel; own is where it builds a null mask of its own.
	var out *data.Column
	own := f.fresh()
	if f.bufs != nil && f.bufs[in.out].kept {
		own, out = &f.bufs[in.out], &f.bufs[in.out].col
	} else {
		out = &data.Column{}
	}
	out.Kind = p.kinds[in.out]
	var a, b vec
	if len(in.args) > 0 {
		a = f.at(in.args[0])
	}
	if len(in.args) > 1 {
		b = f.at(in.args[1])
	}
	switch in.op {
	case opArith:
		out.Nulls = orNulls(own, n, a, b)
		if in.sym == "/" || in.sym == "%" {
			out.Nulls = own.mask(n, out.Nulls) // a zero divisor makes its row NULL
		}
		if out.Kind == data.KindInt {
			out.Ints = arith(in.sym, out.Ints, a.Ints, b.Ints, a.mask, b.mask, n, out.Nulls, func(x, y int64) int64 { return x % y })
		} else {
			out.Floats = arith(in.sym, out.Floats, a.Floats, b.Floats, a.mask, b.mask, n, out.Nulls, math.Mod)
		}
	case opCompare:
		out.Nulls = orNulls(own, n, a, b)
		switch a.Kind {
		case data.KindInt:
			out.Bools = compare(in.sym, out.Bools, a.Ints, b.Ints, a.mask, b.mask, n)
		case data.KindFloat:
			out.Bools = compare(in.sym, out.Bools, a.Floats, b.Floats, a.mask, b.mask, n)
		default:
			out.Bools = compare(in.sym, out.Bools, a.Strs, b.Strs, a.mask, b.mask, n)
		}
	case opLogic:
		at, am := truths(a, f.buf(in.args[0]))
		bt, bm := truths(b, f.buf(in.args[1]))
		out.Bools = grow(out.Bools, n)
		for i := range out.Bools {
			if in.sym == "AND" {
				out.Bools[i] = at[i&am] && bt[i&bm]
			} else {
				out.Bools[i] = at[i&am] || bt[i&bm]
			}
		}
	case opNot:
		at, am := truths(a, f.buf(in.args[0]))
		out.Bools = grow(out.Bools, n)
		for i := range out.Bools {
			out.Bools[i] = !at[i&am]
		}
	case opCase:
		// Operator-at-a-time CASE: every branch is already evaluated in
		// full (the row executor short-circuits instead); which[i] is the
		// first WHEN that holds for row i, nb standing for ELSE.
		nb := len(in.args) / 2
		sc := f.buf(in.out)
		sc.which = grow(sc.which, n)
		which := sc.which
		for i := range which {
			which[i] = uint8(nb)
		}
		branches := make([]vec, nb+1)
		branches[nb] = f.at(in.args[2*nb])
		for j := nb - 1; j >= 0; j-- {
			branches[j] = f.at(in.args[2*j+1])
			wt, wm := truths(f.at(in.args[2*j]), f.buf(in.args[2*j]))
			for i := range which {
				if wt[i&wm] {
					which[i] = uint8(j)
				}
			}
		}
		switch out.Kind {
		case data.KindInt:
			out.Ints = pick(out.Ints, which, branches, func(c *data.Column) []int64 { return c.Ints })
		case data.KindFloat:
			out.Floats = pick(out.Floats, which, branches, func(c *data.Column) []float64 { return c.Floats })
		case data.KindBool:
			out.Bools = pick(out.Bools, which, branches, func(c *data.Column) []bool { return c.Bools })
		default:
			out.Strs = pick(out.Strs, which, branches, func(c *data.Column) []string { return c.Strs })
		}
		out.Nulls = nil
		for _, br := range branches {
			if br.Nulls != nil {
				out.Nulls = pick(own.mask(n, nil), which, branches, func(c *data.Column) []bool { return c.Nulls })
				break
			}
		}
	case opBetween:
		out.Nulls = orNulls(own, n, a, b)
		out.Bools = grow(out.Bools, n)
		for i := range out.Bools {
			out.Bools[i] = (a.Bools[i] && b.Bools[i]) != in.not
		}
	case opIsNull:
		out.Bools = grow(out.Bools, n)
		for i := range out.Bools {
			out.Bools[i] = a.IsNull(i&a.mask) != in.not
		}
	case opCast:
		out.Nulls = orNulls(own, n, a)
		if out.Kind == data.KindFloat {
			out.Floats = convert(out.Floats, a.Ints, a.mask, n)
		} else {
			out.Ints = convert(out.Ints, a.Floats, a.mask, n)
		}
	case opUDF:
		args := make([]*data.Column, len(in.args))
		for i, s := range in.args {
			args[i] = f.full(s)
		}
		return p.callUDF(in.udf, args, n, out.Kind)
	default:
		out = data.NewColumnCap("", out.Kind, n)
		ops := make([]vec, len(in.args))
		for j, s := range in.args {
			ops[j] = f.at(s)
		}
		row := make([]data.Value, len(f.cols))
		for i := 0; i < n; i++ {
			for j, s := range in.args {
				row[s] = ops[j].Get(i & ops[j].mask)
			}
			v, err := EvalPure(in.node, row)
			if err != nil {
				return nil, err
			}
			out.AppendValue(v)
		}
	}
	return out, nil
}

// ---- kernels ----

// Every kernel writes its n result rows into dst, the storage its slot
// had on the previous morsel (nil for fresh storage), and returns it.

// grow returns s resized to n rows, in its own storage when that holds n.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// mask returns n rows of a null mask that the result owns, in sc's
// storage, copied from src (all false when src is nil).
func (sc *scratch) mask(n int, src []bool) []bool {
	if sc.nulls = grow(sc.nulls, n); src == nil {
		clear(sc.nulls)
	} else {
		copy(sc.nulls, src)
	}
	return sc.nulls
}

// orNulls is the null mask of a NULL-strict result: the union of the
// operands' masks, nil when none has one. A lone mask is shared, not
// copied — slots are read-only — unless it is a kept slot's and the
// result is not (own is fresh): a root must not change when the next
// morsel overwrites the slot.
func orNulls(own *scratch, n int, vs ...vec) []bool {
	var out []bool
	built := false
	for _, v := range vs {
		switch {
		case v.Nulls == nil:
		case out == nil && v.mask != 0 && (own.kept || !v.kept):
			out = v.Nulls
		default:
			if !built {
				out, built = own.mask(n, out), true
			}
			for i := range out {
				out[i] = out[i] || v.Nulls[i&v.mask]
			}
		}
	}
	return out
}

// truths reads a bool operand (or the NULL literal) as predicates do:
// NULL is false. sc is the operand slot's scratch.
func truths(v vec, sc *scratch) ([]bool, int) {
	if v.Nulls == nil {
		return v.Bools, v.mask
	}
	sc.truths = grow(sc.truths, len(v.Nulls))
	for i, null := range v.Nulls {
		sc.truths[i] = !null && v.Bools[i]
	}
	return sc.truths, v.mask
}

// arith is the typed specialization of sqlArith: int64 or float64
// arithmetic with the operator hoisted out of the row loop. For / and %,
// nulls is the result's own mask, and a zero divisor makes its row NULL.
func arith[T int64 | float64](sym string, dst, a, b []T, am, bm, n int, nulls []bool, mod func(T, T) T) []T {
	out := grow(dst, n)
	switch sym {
	case "+":
		for i := range out {
			out[i] = a[i&am] + b[i&bm]
		}
	case "-":
		for i := range out {
			out[i] = a[i&am] - b[i&bm]
		}
	case "*":
		for i := range out {
			out[i] = a[i&am] * b[i&bm]
		}
	default:
		for i := range out {
			switch d := b[i&bm]; {
			case d == 0:
				out[i], nulls[i] = 0, true
			case sym == "/":
				out[i] = a[i&am] / d
			default:
				out[i] = mod(a[i&am], d)
			}
		}
	}
	return out
}

// convert is CAST between the numeric kinds (a float truncates).
func convert[A, B int64 | float64](dst []B, a []A, am, n int) []B {
	out := grow(dst, n)
	for i := range out {
		out[i] = B(a[i&am])
	}
	return out
}

// compare is the typed specialization of sqlBinOp's comparisons. <= and
// >= are written as negations so that a NaN operand answers as it does
// through data.Compare, which orders NaN equal to everything.
func compare[T int64 | float64 | string](sym string, dst []bool, a, b []T, am, bm, n int) []bool {
	out := grow(dst, n)
	switch sym {
	case "=":
		for i := range out {
			out[i] = a[i&am] == b[i&bm]
		}
	case "!=":
		for i := range out {
			out[i] = a[i&am] != b[i&bm]
		}
	case "<":
		for i := range out {
			out[i] = a[i&am] < b[i&bm]
		}
	case "<=":
		for i := range out {
			out[i] = !(a[i&am] > b[i&bm])
		}
	case ">":
		for i := range out {
			out[i] = a[i&am] > b[i&bm]
		}
	default:
		for i := range out {
			out[i] = !(a[i&am] < b[i&bm])
		}
	}
	return out
}

// pick gathers, per row, the payload of the branch the row took (the
// zero value from a NULL literal's empty payload).
func pick[T any](dst []T, which []uint8, branches []vec, payload func(*data.Column) []T) []T {
	src := make([][]T, len(branches))
	for j, br := range branches {
		src[j] = payload(br.Column)
	}
	out := grow(dst, len(which))
	var zero T
	for i, w := range which {
		if s := src[w]; len(s) > 0 {
			out[i] = s[i&branches[w].mask]
		} else {
			out[i] = zero
		}
	}
	return out
}
