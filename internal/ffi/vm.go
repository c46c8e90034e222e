package ffi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
)

// Vectorized VM tier: instead of dispatching each TCall through a
// closure-compiled function (closure dispatch per node, a frame per
// call, boxed CrossIn with string marshalling), the section's UDFs run
// as register bytecode in windows of one flat register file that lives
// for the whole morsel. Column values load unboxed straight into registers —
// no per-row string clone, no per-call allocation — and a row only
// pays boxing when it genuinely needs the closure tier (a bail).
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

// VMProgram is a trace lowered onto the bytecode VM: one register
// program per TCall (nil entries are native-Go UDFs invoked directly),
// each executing in its own register window above the trace's own
// registers.
type VMProgram struct {
	// Progs is aligned with Trace.Ops; nil for non-TCall ops and for
	// TCalls served by a native GoFn.
	Progs []*pylite.Program
	// Base is each op's register-window base offset (TCalls with a
	// program only).
	Base []int
	// NumRegs is the full register-file size: the trace's registers
	// followed by every call window.
	NumRegs int
	// Linked, when non-nil, is the whole-row program: every TCall of
	// the trace spliced into one instruction stream (LinkPrograms), so
	// a row costs a single RunVM entry instead of one per call. Only
	// all-TCall traces link; a bail anywhere re-runs the entire row on
	// the closure tier.
	Linked *pylite.Program
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

// CompileTraceVM lowers a compiled trace onto the VM tier. Aggregating
// traces qualify: grouping and accumulation happen outside the op list
// (in the agg runners' emit step), so the scalar prefix lowers exactly
// like a non-aggregating trace. It returns nil when the trace is
// ineligible: distinct-folding traces keep their closure form (the VM
// row loop has no dedup step), as do expanding traces and traces with
// a source table UDF (generator frames) and any TCall whose UDF body is
// outside the bytecode subset. A nil result is permanent for this trace
// (the caller caches the decision on the wrapper).
func CompileTraceVM(t *Trace) *VMProgram {
	if t == nil || len(t.DistinctRegs) > 0 || t.Source != nil {
		return nil
	}
	vp := &VMProgram{
		Progs:   make([]*pylite.Program, len(t.Ops)),
		Base:    make([]int, len(t.Ops)),
		NumRegs: t.NumRegs,
	}
	calls := 0
	for oi := range t.Ops {
		op := &t.Ops[oi]
		switch op.Kind {
		case TCall:
			calls++
			if op.UDF != nil && op.UDF.GoFn != nil {
				continue // native UDF: direct call, no program needed
			}
			prog := op.Prog
			if prog == nil {
				prog = bytecodeFor(op.UDF)
			}
			if prog == nil {
				return nil
			}
			// The trace calls with exactly len(op.Args) positionals; the
			// program must accept that arity (defaults fill the rest).
			if len(op.Args) < prog.Required || len(op.Args) > prog.NumParams {
				return nil
			}
			vp.Progs[oi] = prog
			vp.Base[oi] = vp.NumRegs
			vp.NumRegs += prog.NumRegs
		case TExpr, TFilter:
			// Pure register ops: same closures run under either tier.
		default:
			return nil // TExpand needs generator frames
		}
	}
	if calls == 0 {
		return nil // nothing to accelerate
	}
	// When the trace is nothing but VM-lowered calls, splice their
	// programs into one whole-row instruction stream: per-call entry
	// overhead (cancellation poll, clear pass, window staging) collapses
	// to one occurrence per row. Traces with interleaved TExpr/TFilter
	// closures or native GoFn calls keep per-call dispatch.
	linkable := true
	for oi := range t.Ops {
		if t.Ops[oi].Kind != TCall || vp.Progs[oi] == nil {
			linkable = false
			break
		}
	}
	if linkable {
		parts := make([]pylite.LinkPart, len(t.Ops))
		for oi := range t.Ops {
			op := &t.Ops[oi]
			parts[oi] = pylite.LinkPart{Prog: vp.Progs[oi], Base: vp.Base[oi], Args: op.Args, Dst: op.Dst}
		}
		vp.Linked = pylite.LinkPrograms(parts, vp.NumRegs)
	}
	return vp
}

// vmColLoad loads one column value into a register without the
// boundary marshalling CrossIn models: scalar kinds construct the
// value in place (no string clone — registers never mutate string
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

// RunTraceVectorVM executes a non-aggregating trace over n rows on the
// VM tier. Rows whose UDF programs bail (or fail) re-run per-row on
// the closure tier — bit-identical results either way, since a bailing
// program has made no observable change. Only an interrupt aborts the
// morsel. Returns the output columns plus the number of bailed calls.
func RunTraceVectorVM(u *UDF, vp *VMProgram, t *Trace, args []*data.Column, n int, outNames []string, outKinds []data.Kind) ([]*data.Column, int, error) {
	start := time.Now()
	outs := make([]*data.Column, len(outKinds))
	for i := range outs {
		outs[i] = data.NewColumnCap(outNames[i], outKinds[i], n)
	}
	regs := make([]data.Value, vp.NumRegs)
	for i, r := range t.ConstRegs {
		regs[r] = t.Consts[i]
	}
	outRows := 0
	bails := 0
	var intr *pylite.InterruptError
rows:
	for i := 0; i < n; i++ {
		for j, c := range args {
			regs[j] = vmColLoad(c, i)
		}
		if vp.Linked != nil {
			if err := vmRunLinked(u, vp, t.Ops, regs, &bails); err != nil {
				return nil, bails, err
			}
			for oi, r := range t.OutRegs {
				outs[oi].AppendValue(regs[r])
			}
			outRows++
			continue rows
		}
		for oi := range t.Ops {
			op := &t.Ops[oi]
			switch op.Kind {
			case TCall:
				v, err := vmCallOp(u, vp, op, oi, regs)
				if err != nil {
					if errors.As(err, &intr) {
						return nil, bails, err
					}
					// Bail or runtime error: this row belongs to the closure
					// tier. The re-run reproduces the same result or the same
					// (authoritative) error.
					bails++
					v, err = closureCallOp(u, op, regs)
					if err != nil {
						return nil, bails, wrapUDFErr(op.UDF, err)
					}
				}
				regs[op.Dst] = v
			case TExpr:
				v, err := op.Eval(regs)
				if err != nil {
					return nil, bails, err
				}
				regs[op.Dst] = v
			case TFilter:
				v, err := op.Eval(regs)
				if err != nil {
					return nil, bails, err
				}
				if !v.Truthy() {
					continue rows
				}
			}
		}
		for oi, r := range t.OutRegs {
			outs[oi].AppendValue(regs[r])
		}
		outRows++
	}
	mVMMorsels.Inc()
	mVMRows.Add(int64(n))
	mVMBailRows.Add(int64(bails))
	u.led.VMObserve(n, bails)
	u.record(n, outRows, time.Since(start), 0)
	return outs, bails, nil
}

// runOpsVM executes one row's op list with TCalls dispatched through
// the VM tier, bailing per-call to the closure tier; emit is called at
// the end of the chain (the agg runners step group states there). ops
// must be the trace's full op list — vmCallOp indexes vp.Progs by op
// position. bails accumulates the row's bailed calls. A TExpand hands
// the rest of the row to the closure-tier runOps outright; it cannot
// occur in a VM-lowered trace (CompileTraceVM rejects it) but the
// fallback keeps this loop total.
func runOpsVM(u *UDF, vp *VMProgram, ops []TraceOp, regs []data.Value, bails *int, emit func([]data.Value) error) error {
	if vp.Linked != nil {
		if err := vmRunLinked(u, vp, ops, regs, bails); err != nil {
			return err
		}
		return emit(regs)
	}
	var intr *pylite.InterruptError
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case TCall:
			v, err := vmCallOp(u, vp, op, oi, regs)
			if err != nil {
				if errors.As(err, &intr) {
					return err
				}
				// Bail or runtime error: this call belongs to the closure
				// tier. The re-run reproduces the same result or the same
				// (authoritative) error.
				*bails++
				v, err = closureCallOp(u, op, regs)
				if err != nil {
					return wrapUDFErr(op.UDF, err)
				}
			}
			regs[op.Dst] = v
		case TExpr:
			v, err := op.Eval(regs)
			if err != nil {
				return err
			}
			regs[op.Dst] = v
		case TFilter:
			v, err := op.Eval(regs)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil // row dropped
			}
		default:
			return runOps(u, ops[oi:], regs, emit)
		}
	}
	return emit(regs)
}

// vmRunLinked executes one row's entire op chain through the linked
// whole-row program. On a bail — or any non-interrupt error — the full
// row re-runs on the closure tier: the link condition guarantees every
// op is a TCall, bodies write nothing below their own window until
// their return lands, and completed calls are deterministic, so the
// re-run reproduces the same destinations (or the same authoritative
// error). bails counts one per re-routed row.
func vmRunLinked(u *UDF, vp *VMProgram, ops []TraceOp, regs []data.Value, bails *int) error {
	if !forcedBail() {
		_, err := vp.Linked.RunVM(u.RT, regs)
		if err == nil {
			return nil
		}
		var intr *pylite.InterruptError
		if errors.As(err, &intr) {
			return err
		}
	}
	*bails++
	for oi := range ops {
		op := &ops[oi]
		v, err := closureCallOp(u, op, regs)
		if err != nil {
			return wrapUDFErr(op.UDF, err)
		}
		regs[op.Dst] = v
	}
	return nil
}

// vmCallOp runs one TCall on the VM tier inside its register window.
func vmCallOp(u *UDF, vp *VMProgram, op *TraceOp, oi int, regs []data.Value) (data.Value, error) {
	prog := vp.Progs[oi]
	if prog == nil {
		// Native GoFn UDF: no VM program, direct dispatch.
		callArgs := make([]data.Value, len(op.Args))
		for i, a := range op.Args {
			callArgs[i] = regs[a]
		}
		return op.UDF.invokeOn(u.RT, callArgs)
	}
	if forcedBail() {
		return data.Null, &pylite.BailError{Reason: "forced (test)"}
	}
	win := regs[vp.Base[oi] : vp.Base[oi]+prog.NumRegs]
	for i, a := range op.Args {
		win[i] = regs[a]
	}
	for i := len(op.Args); i < prog.NumParams; i++ {
		win[i] = prog.Defaults[i]
	}
	return prog.RunVM(u.RT, win)
}

// closureCallOp re-runs one TCall on the closure tier — the bail
// target, identical to runOps' TCall dispatch.
func closureCallOp(u *UDF, op *TraceOp, regs []data.Value) (data.Value, error) {
	callArgs := make([]data.Value, len(op.Args))
	for i, a := range op.Args {
		callArgs[i] = regs[a]
	}
	if op.Compiled != nil {
		return op.Compiled.Call(u.RT, callArgs, nil)
	}
	return op.UDF.invokeOn(u.RT, callArgs)
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
