package sqlengine

// The compiled expression program must be invisible: whatever it
// computes — through a typed kernel, the generic instruction, a shared
// register — has to equal what evalRow (EvalPure) computes for the same
// expression row by row, at every morsel size and parallelism. The
// checker below holds one expression over one table to that; the fixed
// table pins the kernels' edges (NULL strictness, zero divisors, unary
// minus, repeated subtrees, int/float promotion), the seeded generator
// and FuzzExprEquiv cover the interior.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// equivConfigs are the executor shapes every expression runs under:
// morsel sizes 1, 7 and 2048 at Parallelism 1 (ModeChunked splits even
// a serial run) and 8 (columnar morsels over the worker pool).
func equivConfigs() []*Engine {
	var out []*Engine
	for _, size := range []int{1, 7, 2048} {
		serial := New("equiv", ModeChunked, ffi.VectorInvoker{}, 0)
		serial.Parallelism, serial.ChunkSize = 1, size
		par := New("equiv", ModeColumnar, ffi.VectorInvoker{}, 0)
		par.Parallelism, par.MorselSize = 8, size
		out = append(out, serial, par)
	}
	return out
}

func sameValue(a, b data.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == data.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	}
	return a.I == b.I && a.S == b.S
}

// checkExprEquiv binds x over tbl as the planner does and holds the bound
// expression to the row evaluator: every non-NULL row has the bound
// kind, and so does the compiled result; the projected column equals
// EvalPure per row; the filter keeps exactly the rows where EvalPure is
// truthy; and each operator compiled its expressions once, however many
// morsels it ran.
func checkExprEquiv(t *testing.T, tbl *data.Table, x SQLExpr) {
	t.Helper()
	x, kind, err := (&planner{cat: NewCatalog()}).bindExpr(x, &Plan{Schema: tbl.Schema})
	if err != nil {
		t.Fatalf("%s: bind: %v", x, err)
	}
	in := tbl.Chunk()
	n := in.NumRows()
	rows := make([]data.Value, n)
	want := data.NewColumn("v", fieldKind(kind))
	for i := range rows {
		v, err := EvalPure(x, in.Row(i))
		if err != nil {
			t.Fatalf("%s: EvalPure row %d: %v", x, i, err)
		}
		if !v.IsNull() && v.Kind != kind {
			t.Errorf("%s: bound as %s but row %d evaluates to %s %v", x, kind, i, v.Kind, v)
		}
		rows[i] = v
		want.AppendValue(v)
	}
	for _, eng := range equivConfigs() {
		eng.Catalog.PutTable(tbl)
		label := fmt.Sprintf("%s [mode=%s par=%d size=%d rows=%d]", x, eng.Mode, eng.Parallelism, eng.morselSize(), n)
		_, err := eng.statement(context.Background(), nil, func(qe *Engine) error {
			c := newCompiler(qe, in)
			tree, err := c.expr(x)
			if err != nil {
				return err
			}
			if k := c.kindOf(tree); k != kind {
				t.Errorf("%s: compiled as %s, bound as %s", label, k, kind)
			}

			scan := &Plan{Op: OpScan, Table: tbl.Name, Schema: tbl.Schema}
			before := mExprCompiles.Value()
			got, err := qe.projectChunk(&Plan{Op: OpProject, Exprs: []SQLExpr{x, x},
				Schema: data.Schema{{Name: "v", Kind: want.Kind}, {Name: "w", Kind: want.Kind}}, Children: []*Plan{scan}}, in, qe.q)
			if err != nil {
				return err
			}
			if d := mExprCompiles.Value() - before; d != 1 {
				t.Errorf("%s: projection compiled %d times, want once per node", label, d)
			}
			if got.NumRows() != n {
				t.Fatalf("%s: %d rows out, want %d", label, got.NumRows(), n)
			}
			for i := 0; i < n; i++ {
				for _, col := range got.Cols {
					if g, w := col.Get(i), want.Get(i); !sameValue(g, w) {
						t.Fatalf("%s: row %d %v: got %s %v, want %s %v", label, i, in.Row(i), g.Kind, g, w.Kind, w)
					}
				}
			}

			kept, err := qe.filterChunk(x, in, qe.q)
			if err != nil {
				return err
			}
			k := 0
			for i, v := range rows {
				if !v.Truthy() {
					continue
				}
				if k >= kept.NumRows() || !sameValue(kept.Cols[0].Get(k), in.Cols[0].Get(i)) {
					t.Fatalf("%s: filter lost or reordered row %d", label, i)
				}
				k++
			}
			if k != kept.NumRows() {
				t.Errorf("%s: filter kept %d rows, want %d", label, kept.NumRows(), k)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// TestExprEquivFixed pins the kernel edges with their answers spelled
// out (the cases the int-program's own test used to hold), and runs each
// through the equivalence check as well.
func TestExprEquivFixed(t *testing.T) {
	tbl := data.NewTable("t", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "a", Kind: data.KindInt},
		{Name: "b", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat},
	})
	_ = tbl.AppendRow(data.Int(0), data.Int(10), data.Int(3), data.Float(1.5))
	_ = tbl.AppendRow(data.Int(1), data.Int(-7), data.Int(0), data.Float(2.5))
	_ = tbl.AppendRow(data.Int(2), data.Null, data.Int(4), data.Float(0))
	_ = tbl.AppendRow(data.Int(3), data.Int(5), data.Null, data.Null)
	eng := New("fixed", ModeColumnar, ffi.VectorInvoker{}, 0)
	eng.Catalog.PutTable(tbl)
	I := func(v int64) data.Value { return data.Int(v) }
	F := func(v float64) data.Value { return data.Float(v) }
	N := data.Null
	cases := []struct {
		sql  string
		want []data.Value // in table order
	}{
		// Deep NULL-strict int chain.
		{"(a * 37 + 11) * 3 - a", []data.Value{I(1133), I(-737), N, I(583)}},
		// NULL in either operand nulls the row.
		{"a + b", []data.Value{I(13), I(-7), N, N}},
		// Zero divisor -> NULL (row 1: b=0), NULL operands stay NULL.
		{"a / b", []data.Value{I(3), N, N, N}},
		{"a % b", []data.Value{I(1), N, N, N}},
		// Unary minus is 0 - e.
		{"-(a * 2)", []data.Value{I(-20), I(14), N, I(-10)}},
		// Repeated subtree (what inlining produces for nested calls).
		{"(a + b) * (a + b)", []data.Value{I(169), I(49), N, N}},
		// An int meeting a float computes as a float.
		{"a + f", []data.Value{F(11.5), F(-4.5), N, N}},
		{"a + 0.5", []data.Value{F(10.5), F(-6.5), N, F(5.5)}},
		{"f / 0", []data.Value{N, N, N, N}},
		// Predicates: NULL in, NULL out — except AND/OR/NOT, which read
		// NULL as false.
		{"a > b", []data.Value{data.Bool(true), data.Bool(false), N, N}},
		{"a > 2.5", []data.Value{data.Bool(true), data.Bool(false), N, data.Bool(true)}},
		{"NOT (a > b)", []data.Value{data.Bool(false), data.Bool(true), data.Bool(true), data.Bool(true)}},
		{"a BETWEEN b AND 10", []data.Value{data.Bool(true), data.Bool(false), N, N}},
		{"a NOT BETWEEN 0 AND 7.5", []data.Value{data.Bool(true), data.Bool(true), N, data.Bool(false)}},
		// Each bound meets the value on its own: the float upper bound does
		// not make 2^53 >= 2^53+1 compare (and hold) through float64.
		{"a + 9007199254740982 BETWEEN 9007199254740993 AND 1e300", []data.Value{data.Bool(false), data.Bool(false), N, data.Bool(false)}},
		// An int branch meeting a float one is bound as a float: the CASE
		// is float on every row, whichever branch the row takes.
		{"CASE WHEN a > 0 THEN 1 ELSE f END", []data.Value{F(1), F(2.5), F(0), F(1)}},
		{"CASE WHEN a IS NULL THEN NULL ELSE a * 2 END", []data.Value{I(20), I(-14), N, I(10)}},
		{"CASE WHEN a > 0 THEN b END", []data.Value{I(3), N, N, N}},
		{"CAST(f AS int) + CAST(b AS float)", []data.Value{F(4), F(2), F(4), N}},
		// A result over a recycled intermediate that owns its null mask
		// (the union of a's and b's) must not share that mask.
		{"(a + b) * 2", []data.Value{I(26), I(-14), N, N}},
		// Zero divisors extend a mask shared from a, at the root and below it.
		{"(a * 2) / (id - 1)", []data.Value{I(-20), N, N, I(5)}},
		{"(a * 2) / (id - 1) + 1", []data.Value{I(-19), N, N, I(6)}},
		// A CASE with a NULL branch, under arithmetic.
		{"(CASE WHEN a > 0 THEN NULL ELSE b END) + 1", []data.Value{N, I(1), I(5), N}},
	}
	for _, c := range cases {
		q, err := eng.Plan("SELECT " + c.sql + " FROM t")
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		x := q.Root.Exprs[0]
		for i, w := range c.want {
			if g, err := EvalPure(x, tbl.Chunk().Row(i)); err != nil || !sameValue(g, w) {
				t.Errorf("%s row %d: got %s %v (%v), want %s %v", c.sql, i, g.Kind, g, err, w.Kind, w)
			}
		}
		checkExprEquiv(t, tbl, x)
	}
}

// TestMixedKindCaseRunsKernels: the binder casts a CASE's int branch to
// the float its other branch has, so the CASE compiles to typed kernels
// alone, with no generic instruction.
func TestMixedKindCaseRunsKernels(t *testing.T) {
	tbl := data.NewTable("m", data.Schema{{Name: "x", Kind: data.KindInt}, {Name: "f", Kind: data.KindFloat}})
	_ = tbl.AppendRow(data.Int(1), data.Float(0.5))
	eng := New("mixed", ModeColumnar, ffi.VectorInvoker{}, 0)
	eng.Catalog.PutTable(tbl)
	q, err := eng.Plan("SELECT CASE WHEN x > 0 THEN 1 ELSE f END, CASE WHEN x > 0 THEN x ELSE f END FROM m")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]data.Kind, len(q.Root.Schema))
	for i, f := range q.Root.Schema {
		if want[i] = f.Kind; f.Kind != data.KindFloat {
			t.Errorf("%s: bound as %s, want float", q.Root.Exprs[i], f.Kind)
		}
	}
	prog, err := eng.compile(tbl.Chunk(), q.Root.Exprs, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range prog.instrs {
		if in.op == opGeneric {
			t.Errorf("generic instruction in the program for %s", in.node)
		}
	}
}

// ---- seeded generator ----

var (
	equivInts = []int64{0, 1, -1, 2, 7, 10, 100, -13, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64,
		1<<53 + 1, -(1<<53 + 1), 1 << 53}
	equivFloats = []float64{0, 1, -1, 0.5, 1.5, -2.5, 7, 1e300, -1e300, 9007199254740992, math.Inf(1), 1e-9}
	equivStrs   = []string{"", "a", "abc", "é", "日本語", "10", "3.5", " 7 ", "-2", "a%c", "A_c", "x'y"}
)

type exprGen struct {
	r      *rand.Rand
	schema data.Schema
	pool   []SQLExpr // subtrees already generated: reused to exercise register sharing
}

func (g *exprGen) pick(n int) int { return g.r.Intn(n) }

func (g *exprGen) value(k data.Kind) data.Value {
	switch k {
	case data.KindInt:
		if g.pick(3) == 0 {
			return data.Int(int64(g.pick(41) - 20))
		}
		return data.Int(equivInts[g.pick(len(equivInts))])
	case data.KindFloat:
		return data.Float(equivFloats[g.pick(len(equivFloats))])
	case data.KindString:
		return data.Str(equivStrs[g.pick(len(equivStrs))])
	case data.KindBool:
		return data.Bool(g.pick(2) == 0)
	}
	return data.Null
}

var equivKinds = []data.Kind{data.KindInt, data.KindFloat, data.KindString, data.KindBool}

// table draws a table of n rows: two columns of each scalar kind, each
// with its own NULL density (0, 1, 50 or 100 %), behind a row id.
func (g *exprGen) table(n int) *data.Table {
	g.schema = data.Schema{{Name: "id", Kind: data.KindInt}}
	for _, k := range equivKinds {
		for j := 0; j < 2; j++ {
			g.schema = append(g.schema, data.Field{Name: fmt.Sprintf("%s%d", k, j), Kind: k})
		}
	}
	tbl := data.NewTable("t", g.schema)
	density := make([]int, len(g.schema))
	for c := range density {
		density[c] = []int{0, 1, 50, 100}[g.pick(4)]
	}
	row := make([]data.Value, len(g.schema))
	for i := 0; i < n; i++ {
		row[0] = data.Int(int64(i))
		for c := 1; c < len(row); c++ {
			row[c] = g.value(g.schema[c].Kind)
			if g.pick(100) < density[c] {
				row[c] = data.Null
			}
		}
		_ = tbl.AppendRow(row...)
	}
	return tbl
}

func (g *exprGen) leaf() SQLExpr {
	switch g.pick(5) {
	case 0:
		if g.pick(4) == 0 {
			return &Lit{Value: data.Null}
		}
		return &Lit{Value: g.value(equivKinds[g.pick(len(equivKinds))])}
	default:
		c := 1 + g.pick(len(g.schema)-1)
		return &ColRef{Name: g.schema[c].Name, Index: c}
	}
}

func (g *exprGen) expr(depth int) SQLExpr {
	if depth <= 0 || g.pick(6) == 0 {
		return g.leaf()
	}
	if len(g.pool) > 0 && g.pick(5) == 0 {
		return g.pool[g.pick(len(g.pool))]
	}
	sub := func() SQLExpr { return g.expr(depth - 1) }
	var x SQLExpr
	switch g.pick(14) {
	case 0, 1:
		x = &BinExpr{Op: []string{"+", "-", "*", "/", "%"}[g.pick(5)], L: sub(), R: sub()}
	case 2, 3:
		x = &BinExpr{Op: []string{"=", "!=", "<", "<=", ">", ">="}[g.pick(6)], L: sub(), R: sub()}
	case 4:
		x = &BinExpr{Op: []string{"AND", "OR", "||", "LIKE"}[g.pick(4)], L: sub(), R: sub()}
	case 5:
		x = &UnaryExpr{Op: []string{"NOT", "-"}[g.pick(2)], E: sub()}
	case 6, 7:
		c := &CaseExpr{}
		if g.pick(3) == 0 {
			c.Operand = sub()
		}
		for i := 0; i <= g.pick(3); i++ {
			c.Whens = append(c.Whens, sub())
			c.Thens = append(c.Thens, sub())
		}
		if g.pick(2) == 0 {
			c.Else = sub()
		}
		x = c
	case 8:
		x = &BetweenExpr{E: sub(), Lo: sub(), Hi: sub(), Not: g.pick(2) == 0}
	case 9:
		in := &InExpr{E: sub(), Not: g.pick(2) == 0}
		for i := 0; i <= g.pick(3); i++ {
			in.List = append(in.List, sub())
		}
		x = in
	case 10:
		x = &IsNullExpr{E: sub(), Not: g.pick(2) == 0}
	case 11:
		x = &CastExpr{E: sub(), Kind: equivKinds[g.pick(len(equivKinds))]}
	default:
		f := &FuncExpr{Name: []string{"length", "abs", "round", "substr", "coalesce", "nullif"}[g.pick(6)]}
		argc := map[string]int{"length": 1, "abs": 1, "round": 1 + g.pick(2), "substr": 2 + g.pick(2),
			"coalesce": 1 + g.pick(3), "nullif": 2}[f.Name]
		for i := 0; i < argc; i++ {
			f.Args = append(f.Args, sub())
		}
		x = f
	}
	g.pool = append(g.pool, x)
	return x
}

// checkSeed draws one table and a few expressions over it from seed.
func checkSeed(t *testing.T, seed int64) {
	g := &exprGen{r: rand.New(rand.NewSource(seed))}
	tbl := g.table([]int{0, 1, 300}[g.pick(3)])
	for i := 0; i < 3; i++ {
		checkExprEquiv(t, tbl, g.expr(1+g.pick(4)))
	}
}

func TestExprEquivalence(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		checkSeed(t, seed)
	}
}

func FuzzExprEquiv(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Fuzz(checkSeed)
}
