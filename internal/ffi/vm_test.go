package ffi

import (
	"errors"
	"fmt"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/pylite"
)

// traceFixture builds a fused-style trace over the shout UDF (string in,
// string out) with a filter and a post-expression.
func traceFixture(t testing.TB) (*UDF, *Trace) {
	rt := pylite.NewInterp()
	if err := rt.Exec("def shout(s):\n    return s.upper() + \"!\"\n"); err != nil {
		t.Fatal(err)
	}
	fn, _ := rt.Global("shout")
	fv := fn.P.(*pylite.FuncValue)
	if c, err := pylite.Compile(fv); err == nil {
		fv.SetCompiled(c)
	}
	shout := &UDF{Name: "shout", Kind: Scalar, Fn: fn, RT: rt}
	u := &UDF{Name: "wrap", Kind: Table, Fn: fn, RT: rt, Fused: true}
	tr := &Trace{
		NumRegs: 2, NumIn: 1,
		Ops: []TraceOp{
			{Kind: TCall, Dst: 1, Args: []int{0}, UDF: shout, Compiled: fv.Compiled()},
			{Kind: TFilter, Eval: func(regs []data.Value) (data.Value, error) {
				return data.Bool(len(regs[1].String()) > 2), nil
			}},
		},
		OutRegs: []int{1},
	}
	return u, tr
}

// scalarUDFs defines src on a fresh runtime and returns the named
// functions as scalar UDFs with their compiled bodies, plus a fused
// wrapper on the same runtime.
func scalarUDFs(t testing.TB, src string, names ...string) (*UDF, []*UDF) {
	rt := pylite.NewInterp()
	if err := rt.Exec(src); err != nil {
		t.Fatal(err)
	}
	udfs := make([]*UDF, len(names))
	for i, name := range names {
		fn, _ := rt.Global(name)
		fv := fn.P.(*pylite.FuncValue)
		if c, err := pylite.Compile(fv); err == nil {
			fv.SetCompiled(c)
		}
		udfs[i] = &UDF{Name: name, Kind: Scalar, Fn: fn, RT: rt}
	}
	return &UDF{Name: "wrap", Kind: Table, Fn: udfs[0].Fn, RT: rt, Fused: true}, udfs
}

const shoutClipSrc = "def shout(s):\n    return s.upper() + \"!\"\n\ndef clip(s):\n    return s[:5].lower()\n"

// callOp is a TCall of u from arg into dst on u's compiled body.
func callOp(u *UDF, dst, arg int) TraceOp {
	return TraceOp{Kind: TCall, Dst: dst, Args: []int{arg}, UDF: u, Compiled: u.Fn.P.(*pylite.FuncValue).Compiled()}
}

// chainFixture builds an all-TCall trace: two chained scalar UDFs, each
// run on the VM in its own window.
func chainFixture(t testing.TB) (*UDF, *Trace) {
	u, fs := scalarUDFs(t, shoutClipSrc, "shout", "clip")
	return u, &Trace{
		NumRegs: 3, NumIn: 1,
		Ops:     []TraceOp{callOp(fs[0], 1, 0), callOp(fs[1], 2, 1)},
		OutRegs: []int{2},
	}
}

// exprFixture builds two program calls with a relational expression
// between them.
func exprFixture(t testing.TB) (*UDF, *Trace) {
	u, fs := scalarUDFs(t, shoutClipSrc, "shout", "clip")
	return u, &Trace{
		NumRegs: 4, NumIn: 1,
		Ops: []TraceOp{
			callOp(fs[0], 1, 0),
			{Kind: TExpr, Dst: 2, Text: "'>' || r1", Eval: func(regs []data.Value) (data.Value, error) {
				return data.Str(">" + regs[1].String()), nil
			}},
			callOp(fs[1], 3, 2),
		},
		OutRegs: []int{3},
	}
}

// lowerBoth lowers tr for both tiers, checking that the VM lowering
// gives the trace the tier want: vm for a fixture every call of which
// has a program.
func lowerBoth(t testing.TB, tr *Trace, want Tier) (closure, vm *Trace) {
	closure, vm = Lower(tr, false), Lower(tr, true)
	if closure.Tier() != TierClosure || vm.Tier() != want {
		t.Fatalf("tiers: closure %s, vm %s (want %s)", closure.Tier(), vm.Tier(), want)
	}
	return closure, vm
}

// checkTierParity runs the same trace lowered without and with the VM
// (the VM lowering of tier tier) over in, every bailEvery-th VM call
// forced to bail (0: none), and requires identical columns, the VM rows
// counted, and bail rows exactly when forced: never more than the VM
// rows, and all of them when every call bails (every row of each
// fixture reaches a program).
func checkTierParity(t *testing.T, u *UDF, tr *Trace, tier Tier, in *data.Column, bailEvery int) {
	t.Helper()
	closure, vm := lowerBoth(t, tr, tier)
	n := in.Len()
	names, kinds := []string{"o"}, []data.Kind{data.KindString}
	want, _, err := RunTraceVector(u, closure, []*data.Column{in}, n, names, kinds)
	if err != nil {
		t.Fatal(err)
	}
	SetVMBailEvery(bailEvery)
	defer SetVMBailEvery(0)
	rows0, bails0 := mVMRows.Value(), mVMBailRows.Value()
	got, _, err := RunTraceVector(u, vm, []*data.Column{in}, n, names, kinds)
	if err != nil {
		t.Fatal(err)
	}
	rows, bails := mVMRows.Value()-rows0, mVMBailRows.Value()-bails0
	if rows == 0 || (bails > 0) != (bailEvery > 0) || bails > rows || (bailEvery == 1 && bails != rows) {
		t.Fatalf("VM rows = %d, bail rows = %d over %d input rows with bailEvery = %d", rows, bails, n, bailEvery)
	}
	if got[0].Len() != want[0].Len() {
		t.Fatalf("rows: got %d want %d", got[0].Len(), want[0].Len())
	}
	for i := 0; i < want[0].Len(); i++ {
		if got[0].Strs[i] != want[0].Strs[i] {
			t.Fatalf("row %d: got %q want %q", i, got[0].Strs[i], want[0].Strs[i])
		}
	}
}

func TestRunTraceVectorVMParity(t *testing.T) {
	u, tr := traceFixture(t)
	checkTierParity(t, u, tr, TierVM, strCol("a", "ada", "grace", "x", "turing"), 0)
}

func TestRunTraceVectorVMForcedBailParity(t *testing.T) {
	u, tr := traceFixture(t)
	checkTierParity(t, u, tr, TierVM, strCol("a", "ada", "grace", "x", "turing"), 2)
	checkTierParity(t, u, tr, TierVM, strCol("a", "ada", "grace", "x", "turing"), 1)
}

func TestLinkedTraceParity(t *testing.T) {
	u, tr := chainFixture(t)
	checkTierParity(t, u, tr, TierVM, strCol("Ada Lovelace", "x", "Grace Hopper", "Turing"), 0)
}

func TestLinkedTraceForcedBailParity(t *testing.T) {
	u, tr := chainFixture(t)
	checkTierParity(t, u, tr, TierVM, strCol("Ada Lovelace", "x", "Grace Hopper", "Turing"), 2)
	checkTierParity(t, u, tr, TierVM, strCol("Ada Lovelace", "x", "Grace Hopper", "Turing"), 1)
}

// TestBailRowsCountRows: a row whose two program calls (a relational
// expression between them) both bail counts once toward the bail rows.
func TestBailRowsCountRows(t *testing.T) {
	u, tr := exprFixture(t)
	in := strCol("Ada Lovelace", "x", "Grace Hopper", "Turing")
	checkTierParity(t, u, tr, TierVM, in, 0)
	checkTierParity(t, u, tr, TierVM, in, 2)
	checkTierParity(t, u, tr, TierVM, in, 1)
}

// perCallSrc defines the per-call fixtures' UDFs: shout has a program;
// guard's try/except keeps it off the VM; words and splitrows are
// generators (an expand and a source).
const perCallSrc = shoutClipSrc + `
def guard(s):
    try:
        return s[:4]
    except Exception:
        return ""

def words(s):
    for w in s.split(" "):
        yield w

def splitrows(rows):
    for s in rows:
        for w in s.split(" "):
            yield w
`

// perCallInput has a word in every row, so every row reaches a call.
func perCallInput() *data.Column {
	return strCol("Ada Lovelace", "x", "Grace Brewster Hopper", "Turing")
}

// TestLowerPerCall: a call runs on the VM if and only if its own body
// has a program. A refused neighbour, an expand before the call or a
// source driving the trace keeps no other call off the VM, and each
// trace returns the same rows closure-lowered, VM-lowered and with every
// VM call forced to bail.
func TestLowerPerCall(t *testing.T) {
	u, fs := scalarUDFs(t, perCallSrc, "shout", "guard", "words", "splitrows")
	shout, guard, words, splitrows := fs[0], fs[1], fs[2], fs[3]
	for _, tc := range []struct {
		name  string
		tr    *Trace
		tiers []Tier // of the trace's calls, VM-lowered
		tier  Tier
	}{
		{"refused-neighbour", &Trace{NumRegs: 3, NumIn: 1,
			Ops:     []TraceOp{callOp(guard, 1, 0), callOp(shout, 2, 1)},
			OutRegs: []int{2}}, []Tier{TierClosure, TierVM}, TierMixed},
		{"expand", &Trace{NumRegs: 3, NumIn: 1,
			Ops: []TraceOp{
				{Kind: TExpand, Args: []int{0}, UDF: words, Dsts: []int{1}},
				callOp(shout, 2, 1),
			},
			OutRegs: []int{2}}, []Tier{TierVM}, TierVM},
		{"source", &Trace{NumRegs: 3, NumIn: 1, Source: splitrows, SourceDsts: []int{1},
			Ops:     []TraceOp{callOp(shout, 2, 1)},
			OutRegs: []int{2}}, []Tier{TierVM}, TierVM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm := Lower(tc.tr, true)
			var tiers []Tier
			for oi := range vm.Ops {
				if vm.Ops[oi].Kind == TCall {
					tiers = append(tiers, vm.Ops[oi].Tier())
				}
			}
			if fmt.Sprint(tiers) != fmt.Sprint(tc.tiers) || vm.Tier() != tc.tier {
				t.Fatalf("call tiers %v, trace %s; want %v, %s", tiers, vm.Tier(), tc.tiers, tc.tier)
			}
			for _, every := range []int{0, 2, 1} {
				checkTierParity(t, u, tc.tr, tc.tier, perCallInput(), every)
			}
		})
	}
}

// TestSourceCountsVMRows: a source-driven trace counts a VM row per row
// its source yields, not per input row.
func TestSourceCountsVMRows(t *testing.T) {
	u, fs := scalarUDFs(t, perCallSrc, "shout", "splitrows")
	vm := Lower(&Trace{NumRegs: 3, NumIn: 1, Source: fs[1], SourceDsts: []int{1},
		Ops: []TraceOp{callOp(fs[0], 2, 1)}, OutRegs: []int{2}}, true)
	in := perCallInput()
	rows0 := mVMRows.Value()
	out, _, err := RunTraceVector(u, vm, []*data.Column{in}, in.Len(), []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	if rows := mVMRows.Value() - rows0; rows != 7 || out[0].Len() != 7 || out[0].Strs[6] != "TURING!" {
		t.Fatalf("VM rows %d, output %v; want 7 rows ending in TURING!", rows, out[0].Strs)
	}
}

// TestLowerLeavesTraceUnchanged: lowering returns a new trace; the one
// it was given (the optimizer's, shared by every tier) keeps no program
// and, having no call windows, refuses to run.
func TestLowerLeavesTraceUnchanged(t *testing.T) {
	u, tr := chainFixture(t)
	Lower(tr, true)
	if tr.Ops[0].Prog != nil || tr.frame != 0 {
		t.Fatal("Lower changed the trace it was given")
	}
	if _, _, err := RunTraceVector(u, tr, []*data.Column{strCol("a")}, 1, []string{"o"}, []data.Kind{data.KindString}); err == nil {
		t.Fatal("a trace ran before Lower")
	}
}

// TestTraceCallArgsNoAlloc: a call stages its arguments in its register
// window, so a closure-tier morsel allocates a fixed amount however many
// rows and calls it runs.
func TestTraceCallArgsNoAlloc(t *testing.T) {
	rt := pylite.NewInterp()
	if err := rt.Exec("def inc(x):\n    return x + 1\n"); err != nil {
		t.Fatal(err)
	}
	fn, _ := rt.Global("inc")
	fv := fn.P.(*pylite.FuncValue)
	c, err := pylite.Compile(fv)
	if err != nil {
		t.Fatal(err)
	}
	inc := &UDF{Name: "inc", Kind: Scalar, Fn: fn, RT: rt}
	u := &UDF{Name: "wrap", Kind: Table, RT: rt, Fused: true}
	tr := Lower(&Trace{NumRegs: 3, NumIn: 1,
		Ops: []TraceOp{
			{Kind: TCall, Dst: 1, Args: []int{0}, UDF: inc, Compiled: c},
			{Kind: TCall, Dst: 2, Args: []int{1}, UDF: inc, Compiled: c},
		},
		OutRegs: []int{2}}, false)
	const n = 2048
	in := data.NewColumnCap("x", data.KindInt, n)
	for i := 0; i < n; i++ {
		in.AppendInt(int64(i))
	}
	names, kinds := []string{"o"}, []data.Kind{data.KindInt}
	var out []*data.Column
	allocs := testing.AllocsPerRun(5, func() {
		if out, _, err = RunTraceVector(u, tr, []*data.Column{in}, n, names, kinds); err != nil {
			t.Fatal(err)
		}
	})
	if out[0].Ints[n-1] != n+1 {
		t.Fatalf("last row = %d, want %d", out[0].Ints[n-1], n+1)
	}
	if allocs > 64 {
		t.Fatalf("%v allocations for %d rows × 2 calls: calls allocate per row", allocs, n)
	}
}

// TestTraceVarargsAcrossRows: a UDF returning its *args list hands back
// a copy, never its reused argument window — a value it produced on an
// earlier row keeps its contents after later rows ran. The trace's last
// op keeps every row's list past its row, as nothing in the engine does.
func TestTraceVarargsAcrossRows(t *testing.T) {
	rt := pylite.NewInterp()
	if err := rt.Exec("def pack(*args):\n    return args\n"); err != nil {
		t.Fatal(err)
	}
	fn, _ := rt.Global("pack")
	pack := &UDF{Name: "pack", Kind: Scalar, Fn: fn, RT: rt}
	op := TraceOp{Kind: TCall, Dst: 1, Args: []int{0, 0}, UDF: pack}
	if c, err := pylite.Compile(fn.P.(*pylite.FuncValue)); err == nil {
		op.Compiled = c
	}
	var kept []data.Value
	keep := TraceOp{Kind: TExpr, Dst: 2, Eval: func(regs []data.Value) (data.Value, error) {
		kept = append(kept, regs[1])
		return data.Null, nil
	}}
	u := &UDF{Name: "wrap", Kind: Table, RT: rt, Fused: true}
	tr := Lower(&Trace{NumRegs: 3, NumIn: 1, Ops: []TraceOp{op, keep}, OutRegs: []int{1}}, false)
	cols, _, err := RunTraceVector(u, tr, []*data.Column{intCol(1, 2, 3)}, 3,
		[]string{"k"}, []data.Kind{data.KindList})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"[1, 1]", "[2, 2]", "[3, 3]"} {
		if got := kept[i].Repr(); got != want {
			t.Fatalf("row %d's list = %s after later rows, want %s", i, got, want)
		}
		if got := cols[0].Get(i).Repr(); got != want {
			t.Fatalf("row %d = %s, want %s", i, got, want)
		}
	}
}

func TestColRowsRaggedTyped(t *testing.T) {
	u := &UDF{Name: "wrap"}
	ok := []*data.Column{strCol("a", "b"), strCol("c", "d")}
	if n, err := colRows(u, ok); err != nil || n != 2 {
		t.Fatalf("aligned columns: n=%d err=%v", n, err)
	}
	ragged := []*data.Column{strCol("a", "b"), strCol("c")}
	_, err := colRows(u, ragged)
	var lm *LengthMismatchError
	if !errors.As(err, &lm) {
		t.Fatalf("ragged columns: err = %v, want *LengthMismatchError", err)
	}
	if lm.UDF != "wrap" || lm.Expected != 2 || lm.Got != 1 {
		t.Fatalf("mismatch payload = %+v", lm)
	}
}

// benchTiers runs one trace over a 2048-row string morsel lowered for
// each tier.
func benchTiers(b *testing.B, u *UDF, tr *Trace, vmName string) {
	const n = 2048
	in := data.NewColumnCap("s", data.KindString, n)
	for i := 0; i < n; i++ {
		in.AppendStr(fmt.Sprintf("value-%d", i))
	}
	outNames, outKinds := []string{"o"}, []data.Kind{data.KindString}
	for _, arm := range []struct {
		name string
		tr   *Trace
	}{{"closure", Lower(tr, false)}, {vmName, Lower(tr, true)}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := RunTraceVector(u, arm.tr, []*data.Column{in}, n, outNames, outKinds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMDispatch compares one fused section's execution tiers:
// compiled-closure call frames against register programs run in their
// windows of the morsel's register file.
func BenchmarkVMDispatch(b *testing.B) {
	u, tr := traceFixture(b)
	benchTiers(b, u, tr, "vm")
}

// BenchmarkVMDispatchLinked compares the tiers on an all-TCall trace:
// two chained UDF calls per row, each program run in its own window.
func BenchmarkVMDispatchLinked(b *testing.B) {
	u, tr := chainFixture(b)
	benchTiers(b, u, tr, "vm-two-calls")
}
