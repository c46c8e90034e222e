package ffi

import (
	"errors"
	"fmt"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/pylite"
)

// traceFixture builds a fused-style trace over the shout UDF (string in,
// string out) with a filter and a post-expression, plus its VM lowering.
func traceFixture(t testing.TB) (*UDF, *Trace, *VMProgram) {
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
	u.SetTrace(tr)
	vp := CompileTraceVM(tr)
	if vp == nil {
		t.Fatal("trace should lower onto the VM tier")
	}
	return u, tr, vp
}

func TestRunTraceVectorVMParity(t *testing.T) {
	u, tr, vp := traceFixture(t)
	in := strCol("a", "ada", "grace", "x", "turing")
	want, err := RunTraceVector(u, tr, []*data.Column{in}, 5, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	got, bails, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, 5, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	if bails != 0 {
		t.Fatalf("unexpected bails: %d", bails)
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

func TestRunTraceVectorVMForcedBailParity(t *testing.T) {
	u, tr, vp := traceFixture(t)
	in := strCol("a", "ada", "grace", "x", "turing")
	want, err := RunTraceVector(u, tr, []*data.Column{in}, 5, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	SetVMBailEvery(2)
	defer SetVMBailEvery(0)
	got, bails, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, 5, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	if bails == 0 {
		t.Fatal("forced bailouts did not fire")
	}
	for i := 0; i < want[0].Len(); i++ {
		if got[0].Strs[i] != want[0].Strs[i] {
			t.Fatalf("row %d: got %q want %q", i, got[0].Strs[i], want[0].Strs[i])
		}
	}
}

// linkedFixture builds an all-TCall trace (two chained scalar UDFs)
// whose VM lowering splices into one whole-row linked program.
func linkedFixture(t testing.TB) (*UDF, *Trace, *VMProgram) {
	rt := pylite.NewInterp()
	src := "def shout(s):\n    return s.upper() + \"!\"\n\ndef clip(s):\n    return s[:5].lower()\n"
	if err := rt.Exec(src); err != nil {
		t.Fatal(err)
	}
	mk := func(name string) (*UDF, *pylite.FuncValue) {
		fn, _ := rt.Global(name)
		fv := fn.P.(*pylite.FuncValue)
		if c, err := pylite.Compile(fv); err == nil {
			fv.SetCompiled(c)
		}
		return &UDF{Name: name, Kind: Scalar, Fn: fn, RT: rt}, fv
	}
	shout, shoutFV := mk("shout")
	clip, clipFV := mk("clip")
	u := &UDF{Name: "wrap", Kind: Table, Fn: shout.Fn, RT: rt, Fused: true}
	tr := &Trace{
		NumRegs: 3, NumIn: 1,
		Ops: []TraceOp{
			{Kind: TCall, Dst: 1, Args: []int{0}, UDF: shout, Compiled: shoutFV.Compiled()},
			{Kind: TCall, Dst: 2, Args: []int{1}, UDF: clip, Compiled: clipFV.Compiled()},
		},
		OutRegs: []int{2},
	}
	u.SetTrace(tr)
	vp := CompileTraceVM(tr)
	if vp == nil {
		t.Fatal("trace should lower onto the VM tier")
	}
	if vp.Linked == nil {
		t.Fatal("all-TCall trace should link into a whole-row program")
	}
	return u, tr, vp
}

func TestLinkedTraceParity(t *testing.T) {
	u, tr, vp := linkedFixture(t)
	in := strCol("Ada Lovelace", "x", "Grace Hopper", "Turing")
	want, err := RunTraceVector(u, tr, []*data.Column{in}, 4, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	got, bails, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, 4, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	if bails != 0 {
		t.Fatalf("unexpected bails: %d", bails)
	}
	for i := 0; i < want[0].Len(); i++ {
		if got[0].Strs[i] != want[0].Strs[i] {
			t.Fatalf("row %d: got %q want %q", i, got[0].Strs[i], want[0].Strs[i])
		}
	}
}

func TestLinkedTraceForcedBailParity(t *testing.T) {
	u, tr, vp := linkedFixture(t)
	in := strCol("Ada Lovelace", "x", "Grace Hopper", "Turing")
	want, err := RunTraceVector(u, tr, []*data.Column{in}, 4, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	SetVMBailEvery(2)
	defer SetVMBailEvery(0)
	got, bails, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, 4, []string{"o"}, []data.Kind{data.KindString})
	if err != nil {
		t.Fatal(err)
	}
	if bails == 0 {
		t.Fatal("forced bailouts did not fire")
	}
	for i := 0; i < want[0].Len(); i++ {
		if got[0].Strs[i] != want[0].Strs[i] {
			t.Fatalf("row %d: got %q want %q", i, got[0].Strs[i], want[0].Strs[i])
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

// BenchmarkVMDispatch compares one fused section's execution tiers over
// a 2048-row morsel: the closure trace loop (per-row CrossIn boxing +
// compiled-closure call frames) against the register VM (unboxed column
// loads, one register file per morsel).
func BenchmarkVMDispatch(b *testing.B) {
	u, tr, vp := traceFixture(b)
	const n = 2048
	in := data.NewColumnCap("s", data.KindString, n)
	for i := 0; i < n; i++ {
		in.AppendStr(fmt.Sprintf("value-%d", i))
	}
	outNames, outKinds := []string{"o"}, []data.Kind{data.KindString}

	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunTraceVector(u, tr, []*data.Column{in}, n, outNames, outKinds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, n, outNames, outKinds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMDispatchLinked compares the tiers on an all-TCall trace
// (two chained UDF calls per row), where the VM splices both call
// programs into one whole-row instruction stream: one RunVM entry, one
// cancellation poll, one clear pass per row.
func BenchmarkVMDispatchLinked(b *testing.B) {
	u, tr, vp := linkedFixture(b)
	const n = 2048
	in := data.NewColumnCap("s", data.KindString, n)
	for i := 0; i < n; i++ {
		in.AppendStr(fmt.Sprintf("value-%d", i))
	}
	outNames, outKinds := []string{"o"}, []data.Kind{data.KindString}

	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunTraceVector(u, tr, []*data.Column{in}, n, outNames, outKinds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm-linked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := RunTraceVectorVM(u, vp, tr, []*data.Column{in}, n, outNames, outKinds); err != nil {
				b.Fatal(err)
			}
		}
	})
}
