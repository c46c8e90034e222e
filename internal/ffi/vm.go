package ffi

import (
	"errors"
	"fmt"
	"sync/atomic"

	"qfusor/internal/data"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
)

// Vectorized VM tier: instead of dispatching a TCall to its
// closure-compiled body (closure dispatch per node, a frame per call),
// a UDF with a register program runs it in its call's window of the
// trace's register file, which lives for the whole morsel. A row only
// pays the compiled body when it genuinely needs it (a bail). Lower
// fixes each call's tier on its own, so one wrapper can mix tiers; the
// one row loop (runOps) serves every call.
var (
	mVMPrograms = obs.Default.Counter("qfusor.vm.programs")
	mVMMorsels  = obs.Default.Counter("qfusor.vm.morsels")
	mVMRows     = obs.Default.Counter("qfusor.vm.rows")
	mVMBailRows = obs.Default.Counter("qfusor.vm.bail_rows")
)

// vmBailEvery, when > 0, forces every Nth VM UDF call to bail — the
// fuzz oracle's fourth arm exercises the bailout protocol on rows that
// would otherwise stay on the VM.
var vmBailEvery atomic.Int64
var vmBailTick atomic.Int64

// SetVMBailEvery forces every nth VM call to bail out to the closure
// tier (0 disables; test/fuzz instrumentation only).
func SetVMBailEvery(n int) {
	vmBailEvery.Store(int64(n))
	vmBailTick.Store(0)
}

func forcedBail() bool {
	n := vmBailEvery.Load()
	return n > 0 && vmBailTick.Add(1)%n == 0
}

// bytecodeFor returns the UDF's cached register program, compiling on
// first use. nil means the UDF cannot run on the VM tier (native GoFn
// UDFs also return nil — they need no program).
func bytecodeFor(u *UDF) *pylite.Program {
	if u == nil || u.GoFn != nil || u.Fn.Kind != data.KindObject {
		return nil
	}
	fv, ok := u.Fn.P.(*pylite.FuncValue)
	if !ok {
		return nil
	}
	if p := fv.Bytecode(); p != nil {
		return p
	}
	if fv.BytecodeFailed() {
		return nil
	}
	p, err := pylite.BCCompile(fv)
	if err != nil || p.AlwaysBails() {
		fv.SetBytecode(nil)
		return nil
	}
	fv.SetBytecode(p)
	mVMPrograms.Inc()
	return p
}

// Lower fixes each call's target and register window and returns the
// trace a wrapper runs; t itself is left as it is. Every TCall and
// TExpand gets its own window above t's registers to stage its
// arguments in. With vm set, a TCall whose UDF has a register program
// that accepts the call's arity (defaults fill the rest) runs it in a
// window sized for it, bailing to the compiled body; every other call
// runs its compiled body or its native GoFn. The rule is per call:
// nothing else in the trace (a source, an expand, a refused neighbour)
// changes it.
func Lower(t *Trace, vm bool) *Trace {
	lt := *t
	lt.Ops = append([]TraceOp(nil), t.Ops...)
	lt.frame = t.NumRegs
	for oi := range lt.Ops {
		op := &lt.Ops[oi]
		op.Prog = nil
		if op.Kind != TCall && op.Kind != TExpand {
			continue
		}
		width := len(op.Args)
		if vm && op.Kind == TCall {
			if p := bytecodeFor(op.UDF); p != nil && len(op.Args) >= p.Required && len(op.Args) <= p.NumParams {
				op.Prog, width = p, p.NumRegs
			}
		}
		op.Base = lt.frame
		lt.frame += width
	}
	return &lt
}

// Tier is an execution tier. A TCall of a lowered trace runs on vm (its
// register program), closure (its compiled body) or native (a Go UDF,
// alike on either tier); a fused wrapper (its trace) on vm, closure or
// mixed, from its PyLite calls' tiers.
type Tier string

const (
	TierVM      Tier = "vm"
	TierClosure Tier = "closure"
	TierMixed   Tier = "mixed"
	TierNative  Tier = "native"
)

// Tier names the tier a TCall of a lowered trace runs on.
func (op *TraceOp) Tier() Tier {
	switch {
	case op.Prog != nil:
		return TierVM
	case op.UDF.GoFn != nil:
		return TierNative
	}
	return TierClosure
}

// Tier names the tier a lowered trace (a fused wrapper) runs on, from
// its calls: closure when none has a program, mixed when some PyLite
// call lacks one, vm otherwise. Native calls count toward neither.
func (t *Trace) Tier() Tier {
	vm, closure := false, false
	for oi := range t.Ops {
		if op := &t.Ops[oi]; op.Kind == TCall {
			vm = vm || op.Prog != nil
			closure = closure || op.Tier() == TierClosure
		}
	}
	switch {
	case !vm:
		return TierClosure
	case closure:
		return TierMixed
	}
	return TierVM
}

// vmColLoad loads one column value into a register without the
// boundary marshalling CrossIn models: scalar kinds construct the
// value in place (no string clone — neither tier mutates string
// payloads), complex kinds fall back to the boxing path.
func vmColLoad(c *data.Column, i int) data.Value {
	if c.IsNull(i) {
		return data.Null
	}
	switch c.Kind {
	case data.KindInt:
		return data.Int(c.Ints[i])
	case data.KindFloat:
		return data.Float(c.Floats[i])
	case data.KindBool:
		return data.Bool(c.Bools[i])
	case data.KindString:
		return data.Str(c.Strs[i])
	}
	return CrossIn(c, i)
}

// call runs one TCall on the target Lower fixed: its VM program in its
// window, or else its compiled body or the UDF itself (GoFn,
// interpreter). A program that bails — or fails — re-runs the call on
// the compiled body, which reproduces the same result or the same
// (authoritative) error; only an interrupt aborts at once. A bail sets
// *bailed.
func (op *TraceOp) call(u *UDF, regs []data.Value, bailed *bool) (data.Value, error) {
	if p := op.Prog; p != nil {
		win := regs[op.Base : op.Base+p.NumRegs]
		op.stage(regs)
		for i := len(op.Args); i < p.NumParams; i++ {
			win[i] = p.Defaults[i]
		}
		if !forcedBail() {
			v, err := p.RunVM(u.RT, win)
			if err == nil || isInterrupt(err) {
				return v, err
			}
		}
		*bailed = true
	}
	v, err := op.callBody(u, regs)
	if err != nil {
		return data.Null, wrapUDFErr(op.UDF, err)
	}
	return v, nil
}

// callBody runs one TCall off the VM: the compiled body when the UDF has
// one, else the UDF itself. Fused UDFs run on the host wrapper's runtime
// view — the clone's own, bound to its query — never on their catalog
// UDF's root runtime.
func (op *TraceOp) callBody(u *UDF, regs []data.Value) (data.Value, error) {
	args := op.stage(regs)
	if op.Compiled != nil {
		return op.Compiled.Call(u.RT, args, nil)
	}
	return op.UDF.invokeOn(u.RT, args)
}

// stage copies a call's arguments into the start of its window and
// returns them. Callees keep no reference to the slice (parameters and
// varargs are copied into frame slots), so the window is reused every
// row.
func (op *TraceOp) stage(regs []data.Value) []data.Value {
	args := regs[op.Base : op.Base+len(op.Args)]
	for i, a := range op.Args {
		args[i] = regs[a]
	}
	return args
}

func isInterrupt(err error) bool {
	var intr *pylite.InterruptError
	return errors.As(err, &intr)
}

// LengthMismatchError is returned when a fused wrapper yields a column
// set whose row count disagrees with what the section requires — a
// wrapper bug that previously truncated silently.
type LengthMismatchError struct {
	UDF      string
	Expected int
	Got      int
}

func (e *LengthMismatchError) Error() string {
	return fmt.Sprintf("ffi: fused wrapper %s returned %d rows, expected %d", e.UDF, e.Got, e.Expected)
}
