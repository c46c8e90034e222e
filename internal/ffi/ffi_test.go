package ffi

import (
	"fmt"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/pylite"
)

// testRuntime builds a runtime with a few UDFs.
func testRuntime(t *testing.T) *pylite.Interp {
	t.Helper()
	rt := pylite.NewInterp()
	rt.HotThreshold = 2
	err := rt.Exec(`
def double(x):
    return x * 2

def shout(s):
    return s.upper() + "!"

def ntokens(xs):
    return len(xs)

class summer:
    def init(self):
        self.s = 0
    def step(self, x):
        if x is not None:
            self.s = self.s + x
    def final(self):
        return self.s

def words(s):
    for w in s.split(" "):
        yield w

def tagger(rows):
    for r in rows:
        yield [r, len(r)]
`)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func udfOf(t *testing.T, rt *pylite.Interp, name string, kind UDFKind, in, out []data.Kind) *UDF {
	t.Helper()
	fn, ok := rt.Global(name)
	if !ok {
		t.Fatalf("udf %s undefined", name)
	}
	return &UDF{Name: name, Kind: kind, InKinds: in, OutKinds: out, Fn: fn, RT: rt}
}

func intCol(vals ...int64) *data.Column {
	c := data.NewColumn("x", data.KindInt)
	for _, v := range vals {
		c.AppendInt(v)
	}
	return c
}

func strCol(vals ...string) *data.Column {
	c := data.NewColumn("s", data.KindString)
	for _, v := range vals {
		c.AppendStr(v)
	}
	return c
}

// invokers returns the three transports (process invoker closed by the
// test cleanup).
func invokers(t *testing.T) map[string]Invoker {
	t.Helper()
	p := NewProcessInvoker(2)
	t.Cleanup(p.Close)
	return map[string]Invoker{
		"vector":  VectorInvoker{},
		"tuple":   TupleInvoker{},
		"process": p,
	}
}

func TestCallScalarAcrossTransports(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	in := intCol(1, 2, 3, 4, 5)
	for name, inv := range invokers(t) {
		out, err := inv.CallScalar(u, []*data.Column{in}, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, want := range []int64{2, 4, 6, 8, 10} {
			if out.Ints[i] != want {
				t.Fatalf("%s: row %d = %d, want %d", name, i, out.Ints[i], want)
			}
		}
	}
}

func TestCallScalarStringMarshalling(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "shout", Scalar, []data.Kind{data.KindString}, []data.Kind{data.KindString})
	in := strCol("ada", "grace")
	out, err := VectorInvoker{}.CallScalar(u, []*data.Column{in}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Strs[0] != "ADA!" || out.Strs[1] != "GRACE!" {
		t.Fatalf("got %v", out.Strs)
	}
	// The input column must be untouched (boundary copies).
	if in.Strs[0] != "ada" {
		t.Fatal("input mutated across boundary")
	}
}

func TestCallAggregateGroups(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "summer", Aggregate, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	in := intCol(1, 2, 3, 4, 5, 6)
	groups := []int{0, 1, 0, 1, 0, 1}
	for name, inv := range invokers(t) {
		out, err := inv.CallAggregate(u, []*data.Column{in}, 6, groups, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, _ := out[0].AsInt(); v != 9 { // 1+3+5
			t.Fatalf("%s: group0 = %v", name, out[0])
		}
		if v, _ := out[1].AsInt(); v != 12 { // 2+4+6
			t.Fatalf("%s: group1 = %v", name, out[1])
		}
	}
}

func TestCallExpandPerRow(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "words", Expand, []data.Kind{data.KindString}, []data.Kind{data.KindString})
	in := strCol("a b", "xyz", "")
	for name, inv := range invokers(t) {
		out, parent, err := inv.CallExpand(u, []*data.Column{in}, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// splitting "" yields one empty token (Python semantics)
		if got := fmt.Sprint(out.Cols[0].Strs, parent); got != "[a b xyz ] [0 0 1 2]" {
			t.Fatalf("%s: rows, parents = %s", name, got)
		}
	}
}

func TestCallTableGeneratorProtocol(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "tagger", Table,
		[]data.Kind{data.KindString},
		[]data.Kind{data.KindString, data.KindInt})
	u.OutNames = []string{"w", "n"}
	in := data.NewChunk(strCol("aa", "bbb"))
	for name, inv := range invokers(t) {
		out, err := inv.CallTable(u, in, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.NumRows() != 2 || out.Cols[1].Ints[1] != 3 {
			t.Fatalf("%s: out = %v / %v", name, out.Cols[0].Strs, out.Cols[1].Ints)
		}
	}
}

func TestComplexTypeSerializationThroughColumns(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "ntokens", Scalar, []data.Kind{data.KindList}, []data.Kind{data.KindInt})
	lists := data.NewColumn("xs", data.KindList)
	lists.AppendStr(`["a","b","c"]`)
	lists.AppendStr(`[]`)
	out, err := VectorInvoker{}.CallScalar(u, []*data.Column{lists}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 3 || out.Ints[1] != 0 {
		t.Fatalf("got %v", out.Ints)
	}
}

func TestUDFErrorIsSurfaced(t *testing.T) {
	rt := testRuntime(t)
	if err := rt.Exec("def boom(x):\n    raise ValueError(\"bad \" + str(x))\n"); err != nil {
		t.Fatal(err)
	}
	u := udfOf(t, rt, "boom", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	for name, inv := range invokers(t) {
		_, err := inv.CallScalar(u, []*data.Column{intCol(7)}, 1)
		if err == nil {
			t.Fatalf("%s: error swallowed", name)
		}
	}
}

func TestStatsAreLearned(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "words", Expand, []data.Kind{data.KindString}, []data.Kind{data.KindString})
	if _, _, err := (VectorInvoker{}).CallExpand(u, []*data.Column{strCol("a b c", "x y")}, 2); err != nil {
		t.Fatal(err)
	}
	if u.Stats.InRows.Load() != 2 || u.Stats.OutRows.Load() != 5 {
		t.Fatalf("stats: in=%d out=%d", u.Stats.InRows.Load(), u.Stats.OutRows.Load())
	}
	if sel := u.Stats.Selectivity(); sel != 2.5 {
		t.Fatalf("selectivity = %v", sel)
	}
}

func TestGoFnNativeUDF(t *testing.T) {
	u := &UDF{Name: "triple", Kind: Scalar,
		InKinds: []data.Kind{data.KindInt}, OutKinds: []data.Kind{data.KindInt},
		GoFn: func(args []data.Value) (data.Value, error) {
			i, _ := args[0].AsInt()
			return data.Int(i * 3), nil
		}}
	out, err := VectorInvoker{}.CallScalar(u, []*data.Column{intCol(5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 15 {
		t.Fatalf("got %d", out.Ints[0])
	}
}

// TestFusedWrapperVectorConvention: a fused wrapper is its trace — one
// call per batch over whole input columns returns whole output
// columns — and a wrapper without one is refused, never interpreted.
func TestFusedWrapperVectorConvention(t *testing.T) {
	rt := testRuntime(t)
	dbl := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	u := &UDF{Name: "wrapper", Kind: Table, RT: rt, Fused: true}
	u.SetTrace(Lower(&Trace{NumRegs: 2, NumIn: 1,
		Ops:     []TraceOp{{Kind: TCall, Dst: 1, Args: []int{0}, UDF: dbl}},
		OutRegs: []int{1}}, false))
	cols, _, err := CallFusedVector(u, []*data.Column{intCol(3, 4)}, 2, []string{"d"}, []data.Kind{data.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Ints[0] != 6 || cols[0].Ints[1] != 8 {
		t.Fatalf("got %v", cols[0].Ints)
	}
	bare := &UDF{Name: "bare", Kind: Table, RT: rt, Fused: true}
	if _, _, err := CallFusedVector(bare, []*data.Column{intCol(3)}, 1, []string{"d"}, []data.Kind{data.KindInt}); err == nil {
		t.Fatal("a fused wrapper without a trace ran")
	}
}

func TestTraceVectorExecution(t *testing.T) {
	rt := testRuntime(t)
	fn, _ := rt.Global("double")
	u := &UDF{Name: "t", Kind: Table, Fn: fn, RT: rt, Fused: true}
	dbl := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	tr := &Trace{
		NumRegs: 3, NumIn: 1,
		Ops: []TraceOp{
			{Kind: TCall, Dst: 1, Args: []int{0}, UDF: dbl},
			{Kind: TFilter, Eval: func(regs []data.Value) (data.Value, error) {
				v, _ := regs[1].AsInt()
				return data.Bool(v > 4), nil
			}},
			{Kind: TExpr, Dst: 2, Eval: func(regs []data.Value) (data.Value, error) {
				v, _ := regs[1].AsInt()
				return data.Int(v + 100), nil
			}},
		},
		OutRegs: []int{2},
	}
	tr = Lower(tr, false)
	u.SetTrace(tr)
	cols, _, err := RunTraceVector(u, tr, []*data.Column{intCol(1, 3, 5)}, 3,
		[]string{"o"}, []data.Kind{data.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// double → 2,6,10; filter >4 keeps 6,10; +100 → 106,110.
	if cols[0].Len() != 2 || cols[0].Ints[0] != 106 || cols[0].Ints[1] != 110 {
		t.Fatalf("got %v", cols[0].Ints)
	}
}

// TestAggregatingTraceYieldsRowsAfterFilter: an aggregating section's
// trace groups nothing: it yields each surviving row's group key and
// aggregate argument, and the engine's aggregate folds them (checked end
// to end by TestFusedAggMatchesEngineAggregate in internal/engines).
func TestAggregatingTraceYieldsRowsAfterFilter(t *testing.T) {
	rt := testRuntime(t)
	u := &UDF{Name: "ta", Kind: Table, RT: rt, Fused: true}
	tr := &Trace{
		NumRegs: 2, NumIn: 2, // reg0 = value, reg1 = key
		Ops: []TraceOp{
			{Kind: TFilter, Eval: func(regs []data.Value) (data.Value, error) {
				v, _ := regs[0].AsInt()
				return data.Bool(v > 10), nil
			}},
		},
		OutRegs: []int{1, 0},
	}
	vals := intCol(5, 20, 30, 7)
	keys := strCol("a", "a", "b", "b")
	cols, rows, err := RunTraceVector(u, Lower(tr, false), []*data.Column{vals, keys}, 4,
		[]string{"k", "v"}, []data.Kind{data.KindString, data.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// The filter keeps 20(a) and 30(b).
	if rows != 2 || cols[0].Len() != 2 || cols[0].Strs[0] != "a" || cols[0].Strs[1] != "b" ||
		cols[1].Ints[0] != 20 || cols[1].Ints[1] != 30 {
		t.Fatalf("rows = %d, keys %v, values %v", rows, cols[0].Strs, cols[1].Ints)
	}
	if got := u.Stats.OutRows.Load(); got != 2 {
		t.Fatalf("rows_out = %d, want the 2 rows the trace yielded", got)
	}
}

func TestProcessInvokerIsolatedWorker(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(3) // force multiple batches
	defer p.Close()
	in := intCol(1, 2, 3, 4, 5, 6, 7)
	out, err := p.CallScalar(u, []*data.Column{in}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 7 || out.Ints[6] != 14 {
		t.Fatalf("got %v", out.Ints)
	}
}

// TestTraceErrorPropagation: a UDF raising inside a compiled trace
// surfaces as an engine error naming the UDF.
func TestTraceErrorPropagation(t *testing.T) {
	rt := testRuntime(t)
	if err := rt.Exec("def explode5(x):\n    if x == 5:\n        raise ValueError(\"five\")\n    return x\n"); err != nil {
		t.Fatal(err)
	}
	u := udfOf(t, rt, "explode5", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	host := &UDF{Name: "host", Kind: Table, RT: rt, Fused: true}
	tr := &Trace{NumRegs: 2, NumIn: 1,
		Ops:     []TraceOp{{Kind: TCall, Dst: 1, Args: []int{0}, UDF: u}},
		OutRegs: []int{1}}
	_, _, err := RunTraceVector(host, Lower(tr, false), []*data.Column{intCol(1, 5, 9)}, 3,
		[]string{"o"}, []data.Kind{data.KindInt})
	if err == nil || !contains(err.Error(), "explode5") || !contains(err.Error(), "five") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTraceRowsSplitAcrossMorsels: a wrapper run per morsel yields, in
// morsel order, the rows one run over the whole input yields — what lets
// the engine's aggregate fold a fused section's morsels and merge them
// at the barrier (TestParallelFusedAggMatchesSerial checks the answer).
func TestTraceRowsSplitAcrossMorsels(t *testing.T) {
	rt := testRuntime(t)
	fn, _ := rt.Global("double")
	dbl := &UDF{Name: "double", Kind: Scalar, Fn: fn, RT: rt}
	u := &UDF{Name: "m", Kind: Table, RT: rt, Fused: true}
	tr := Lower(&Trace{NumRegs: 3, NumIn: 2,
		Ops: []TraceOp{
			{Kind: TCall, Dst: 2, Args: []int{0}, UDF: dbl},
			{Kind: TFilter, Eval: func(regs []data.Value) (data.Value, error) {
				v, _ := regs[0].AsInt()
				return data.Bool(v != 4), nil
			}},
		},
		OutRegs: []int{1, 2}}, false)
	vals := intCol(1, 2, 3, 4, 5, 6, 7, 8)
	keys := strCol("a", "b", "a", "b", "a", "b", "a", "b")
	names, kinds := []string{"k", "d"}, []data.Kind{data.KindString, data.KindInt}
	whole, n, err := RunTraceVector(u, tr, []*data.Column{vals, keys}, 8, names, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Stats.Calls.Load(); got != 1 || n != 7 {
		t.Fatalf("one run over the whole input: %d crossings, %d rows; want 1 and 7", got, n)
	}
	var parts []string
	for _, s := range [][2]int{{0, 5}, {5, 8}} {
		cols, _, err := RunTraceVector(u.WorkerClone(), tr, []*data.Column{vals.Slice(s[0], s[1]), keys.Slice(s[0], s[1])}, s[1]-s[0], names, kinds)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cols[0].Len(); r++ {
			parts = append(parts, cols[0].Get(r).Repr()+cols[1].Get(r).Repr())
		}
	}
	if len(parts) != n {
		t.Fatalf("morsels yielded %d rows, the whole input %d", len(parts), n)
	}
	for r, p := range parts {
		if w := whole[0].Get(r).Repr() + whole[1].Get(r).Repr(); w != p {
			t.Fatalf("row %d: whole %s, morsels %s", r, w, p)
		}
	}
}

// TestBoundaryRoundTripProperty (DESIGN.md §6): column → boxed values →
// column is identity for every kind, including nested lists/dicts
// through their JSON column representation.
func TestBoundaryRoundTripProperty(t *testing.T) {
	cols := []*data.Column{}
	ints := data.NewColumn("i", data.KindInt)
	ints.AppendInt(-7)
	ints.AppendNull()
	ints.AppendInt(1 << 40)
	cols = append(cols, ints)
	strs := data.NewColumn("s", data.KindString)
	strs.AppendStr("")
	strs.AppendStr("héllo, \"quoted\"")
	strs.AppendNull()
	cols = append(cols, strs)
	floats := data.NewColumn("f", data.KindFloat)
	floats.AppendFloat(-2.5)
	floats.AppendFloat(0)
	floats.AppendNull()
	cols = append(cols, floats)
	lists := data.NewColumn("l", data.KindList)
	lists.AppendValue(data.NewList([]data.Value{data.Int(1), data.Str("x"),
		data.NewList([]data.Value{data.Bool(true)})}))
	lists.AppendNull()
	lists.AppendValue(data.NewList(nil))
	cols = append(cols, lists)
	dicts := data.NewColumn("d", data.KindDict)
	dv := data.NewDict()
	dv.Dict().Set("k", data.NewList([]data.Value{data.Float(1.25)}))
	dicts.AppendValue(dv)
	dicts.AppendNull()
	dicts.AppendValue(data.NewDict())
	cols = append(cols, dicts)

	for _, c := range cols {
		n := c.Len()
		vals := BoxColumn(c, n)
		back := UnboxValues(c.Name, c.Kind, vals)
		if back.Len() != n {
			t.Fatalf("%s: len %d vs %d", c.Name, back.Len(), n)
		}
		for i := 0; i < n; i++ {
			if !data.Equal(c.Get(i), back.Get(i)) {
				t.Fatalf("%s row %d: %v vs %v", c.Name, i, c.Get(i), back.Get(i))
			}
		}
	}
}

// TestTraceRender: a trace prints as the Python-like wrapper it runs,
// deterministically, with constants in their own kinds — what the
// optimizer hashes to key its wrapper cache.
func TestTraceRender(t *testing.T) {
	rt := testRuntime(t)
	dbl := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	tr := &Trace{NumRegs: 5, NumIn: 1,
		Consts: []data.Value{data.Int(1)}, ConstRegs: []int{1},
		Ops: []TraceOp{
			{Kind: TCall, Dst: 2, Args: []int{0}, UDF: dbl},
			{Kind: TFilter, Text: "(r2 > r1)"},
			{Kind: TExpr, Dst: 3, Text: "(r2 || 'x')"},
		},
		OutRegs: []int{3, 0}}
	want := `def w(c0):
    r1 = 1
    for r0 in rows(c0):
        r2 = double(r0)
        if not sql("(r2 > r1)"):
            continue
        r3 = sql("(r2 || 'x')")
        yield r3, r0
`
	if got := tr.Render("w"); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	tr.Consts[0] = data.Float(1)
	if got := tr.Render("w"); got == want {
		t.Fatal("an int and a float constant render alike")
	}
}
