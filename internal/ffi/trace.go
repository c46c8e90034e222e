package ffi

import (
	"fmt"
	"strings"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/pylite"
)

// Trace is a fused wrapper: the one form the fusion code generator
// lowers a section (or a scalar-UDF chain) to, registered as is. The
// loop itself is native (a Go-level trace of register ops), each UDF
// call dispatches straight to the target Lower fixed for it (its VM
// program or its compiled body), relational operators
// run with the engine's own SQL semantics, and outputs append directly
// into engine columns. This models what the paper's tracing JIT
// produces once the generated wrapper's hot loop has been traced (§5.3)
// — no per-iteration interpretation remains. Render prints it as the
// Python-like wrapper the paper shows.
type Trace struct {
	// NumRegs is the number of value registers; inputs land in regs
	// [0..k). Lower lays the call windows out above them.
	NumRegs int
	// NumIn is the number of input columns; without a Source each row's
	// values load into registers [0, NumIn).
	NumIn int
	// Source, when set, is a FROM-position table UDF that drives the
	// row loop instead: it is called once per batch with a generator
	// over the input rows (the paper's inp_datagen) followed by
	// SourceArgs, and every row it yields binds SourceDsts before Ops
	// run.
	Source     *UDF
	SourceArgs []data.Value
	SourceDsts []int
	// Consts preloads constant registers: regs[ConstRegs[i]] = Consts[i].
	Consts    []data.Value
	ConstRegs []int
	// Ops is the loop body.
	Ops []TraceOp
	// OutRegs lists the registers each row yields, one per output
	// column. An aggregating section's trace (a DISTINCT's among them)
	// yields its group keys, then each aggregate's argument: the
	// engine's aggregate groups and folds them, so no trace keeps state
	// across rows.
	OutRegs []int
	// frame is the register-file size: NumRegs plus every call's window
	// (set by Lower; only a lowered trace runs).
	frame int
}

// TraceOpKind enumerates trace operations.
type TraceOpKind int

const (
	// TCall invokes a scalar UDF: regs[Dst] = UDF(regs[Args...]).
	TCall TraceOpKind = iota
	// TExpr evaluates a relational expression closure over the regs.
	TExpr
	// TFilter skips the row (or expanded row) unless Eval is truthy.
	TFilter
	// TExpand drains a generator UDF: for each yielded row, binds Dsts
	// and runs the ops after it.
	TExpand
)

// TraceOp is one operation of the loop body.
type TraceOp struct {
	Kind TraceOpKind
	Dst  int
	Args []int
	UDF  *UDF
	// Compiled, when set, is the UDF's compiled body invoked directly
	// (the trace's inlined call — no dynamic dispatch).
	Compiled *pylite.CompiledFunc
	// Prog, when set (by Lower), is the UDF's register-bytecode program,
	// run in the call's window, falling back to Compiled/the UDF on bail.
	Prog *pylite.Program
	// Base is where the call's register window starts (TCall, TExpand;
	// set by Lower): its arguments are staged there, and its program runs
	// there.
	Base int
	// Eval computes a relational expression over the register file
	// (built by the fusion code generator with SQL NULL semantics).
	Eval func(regs []data.Value) (data.Value, error)
	// Text is the SQL expression Eval computes, its operands named by
	// register (r3): what Render prints for TExpr and TFilter.
	Text string
	// Dsts are the registers a TExpand binds per yielded row; the ops
	// after it run once per binding.
	Dsts []int
}

// RunTraceVector executes a lowered trace over n input rows, on
// whichever tier Lower fixed for each call, and returns its output
// columns and the number of rows it yielded (a trace may yield rows of
// no column: a global COUNT(*) needs only their count).
func RunTraceVector(u *UDF, t *Trace, args []*data.Column, n int, outNames []string, outKinds []data.Kind) ([]*data.Column, int, error) {
	start := time.Now()
	outs := make([]*data.Column, len(outKinds))
	for i := range outs {
		outs[i] = data.NewColumnCap(outNames[i], outKinds[i], n)
	}
	outRows := 0
	emit := func(regs []data.Value) error {
		for i, r := range t.OutRegs {
			outs[i].AppendValue(regs[r])
		}
		outRows++
		return nil
	}
	if err := t.drive(u, args, n, emit); err != nil {
		return nil, 0, err
	}
	u.record(n, outRows, time.Since(start), 0)
	return outs, outRows, nil
}

// drive runs the trace body once per row, on one register file for the
// whole morsel: once per input row with registers [0, NumIn) loaded
// from args, or — when the trace has a Source — once per row the source
// yields from a single call over all n input rows. When some call runs
// on the VM it then counts the rows the body ran on, and those with a
// bailed call (once each, however many of their calls bailed).
func (t *Trace) drive(u *UDF, args []*data.Column, n int, emit func([]data.Value) error) error {
	if t.frame < t.NumRegs {
		return fmt.Errorf("ffi: trace of %s run before Lower", u.Name)
	}
	regs := make([]data.Value, t.frame)
	for i, r := range t.ConstRegs {
		regs[r] = t.Consts[i]
	}
	rows, bails, bailed := 0, 0, false
	body := func() error {
		bailed = false
		err := runOps(u, t.Ops, regs, &bailed, emit)
		rows++
		if bailed {
			bails++
		}
		return err
	}
	if t.Source == nil {
		for i := 0; i < n; i++ {
			for j, c := range args {
				regs[j] = vmColLoad(c, i)
			}
			if err := body(); err != nil {
				return err
			}
		}
	} else if err := t.driveSource(u, args, n, regs, body); err != nil {
		return err
	}
	mTraceRows.Add(int64(n))
	if t.Tier() != TierClosure {
		mVMMorsels.Inc()
		mVMRows.Add(int64(rows))
		mVMBailRows.Add(int64(bails))
		u.led.VMObserve(rows, bails)
	}
	return nil
}

// driveSource calls the trace's source table UDF once over all n input
// rows and, for every row it yields, binds SourceDsts and runs body.
func (t *Trace) driveSource(u *UDF, args []*data.Column, n int, regs []data.Value, body func() error) error {
	in := inputRows(u.RT, args, n)
	defer in.Close()
	gv, err := u.RT.Call(t.Source.Fn, append([]data.Value{data.Object(in)}, t.SourceArgs...))
	if err != nil {
		return wrapUDFErr(t.Source, err)
	}
	return eachRow(u.RT, t.Source, gv, func(v data.Value) error {
		bindRow(regs, t.SourceDsts, v)
		return body()
	})
}

// eachRow feeds every row a generator UDF's result yields (or, for a
// plain iterable, every item) to fn: the one loop over a UDF's rows. It
// runs on rt, the runtime that called the UDF, and a generator runs
// with fn as its yield. An exception inside the UDF is attributed to
// it; fn's errors pass as they are.
func eachRow(rt *pylite.Interp, src *UDF, gv data.Value, fn func(data.Value) error) error {
	var cerr error
	err := rt.Iterate(gv, func(v data.Value) error {
		cerr = fn(v)
		return cerr
	})
	if err != nil && cerr == nil {
		return wrapUDFErr(src, err)
	}
	return err
}

// rowCell is the row rule, the one place a yielded value becomes a row:
// it returns column i of the row v makes for a UDF with width output
// columns. With several columns a list's items fill them in order;
// anything else is a one-value row. Columns past the row's end are NULL.
func rowCell(v data.Value, width, i int) data.Value {
	if l := v.List(); l != nil && width > 1 {
		if i < len(l.Items) {
			return l.Items[i]
		}
		return data.Null
	}
	if i == 0 {
		return v
	}
	return data.Null
}

// bindRow binds one yielded row to its registers under the row rule.
func bindRow(regs []data.Value, dsts []int, v data.Value) {
	for i, d := range dsts {
		regs[d] = rowCell(v, len(dsts), i)
	}
}

// runOps is the row loop: it executes an op list for one (possibly
// expanded) row, each TCall on the target Lower fixed (see call); emit is
// called at the end of the chain. A bailed VM call sets *bailed.
func runOps(u *UDF, ops []TraceOp, regs []data.Value, bailed *bool, emit func([]data.Value) error) error {
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case TCall:
			v, err := op.call(u, regs, bailed)
			if err != nil {
				return err
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
		case TExpand:
			// Like every fused call, the generator runs on the host
			// wrapper's runtime view.
			gv, err := u.RT.Call(op.UDF.Fn, op.stage(regs))
			if err != nil {
				return wrapUDFErr(op.UDF, err)
			}
			rest := ops[oi+1:]
			return eachRow(u.RT, op.UDF, gv, func(v data.Value) error {
				bindRow(regs, op.Dsts, v)
				return runOps(u, rest, regs, bailed, emit)
			})
		}
	}
	return emit(regs)
}

// Render prints the trace as Python-like pseudo-source: the fused
// wrapper of the paper's code generator (§5.3), written from the trace
// that runs. Inputs are positional (c0, c1, ...) and registers are
// r<N>; TExpr and TFilter operands print as sql("<expression>"), the
// engine evaluating them. The text is deterministic and parses as
// PyLite; the optimizer keys its wrapper cache and circuit breaker by
// its hash, so two traces print alike only when they compute alike.
func (t *Trace) Render(name string) string {
	var b strings.Builder
	params := make([]string, t.NumIn)
	for i := range params {
		params[i] = fmt.Sprintf("c%d", i)
	}
	fmt.Fprintf(&b, "def %s(%s):\n", name, strings.Join(params, ", "))
	for i, r := range t.ConstRegs {
		fmt.Fprintf(&b, "    r%d = %s\n", r, t.Consts[i].Repr())
	}
	if t.Source != nil {
		args := []string{fmt.Sprintf("rows(%s)", strings.Join(params, ", "))}
		for _, v := range t.SourceArgs {
			args = append(args, v.Repr())
		}
		fmt.Fprintf(&b, "    for %s in %s(%s):\n", regList(t.SourceDsts), t.Source.Name, strings.Join(args, ", "))
	} else {
		in := make([]int, t.NumIn)
		for i := range in {
			in[i] = i
		}
		fmt.Fprintf(&b, "    for %s in rows(%s):\n", regList(in), strings.Join(params, ", "))
	}
	t.renderOps(&b, t.Ops, 2)
	return b.String()
}

// renderOps prints an op list at the given indent depth, then the row's
// yield.
func (t *Trace) renderOps(b *strings.Builder, ops []TraceOp, depth int) {
	ind := strings.Repeat("    ", depth)
	for oi, op := range ops {
		switch op.Kind {
		case TCall:
			fmt.Fprintf(b, "%sr%d = %s(%s)\n", ind, op.Dst, op.UDF.Name, regList(op.Args))
		case TExpr:
			fmt.Fprintf(b, "%sr%d = sql(%s)\n", ind, op.Dst, data.Str(op.Text).Repr())
		case TFilter:
			fmt.Fprintf(b, "%sif not sql(%s):\n%s    continue\n", ind, data.Str(op.Text).Repr(), ind)
		case TExpand:
			fmt.Fprintf(b, "%sfor %s in %s(%s):\n", ind, regList(op.Dsts), op.UDF.Name, regList(op.Args))
			t.renderOps(b, ops[oi+1:], depth+1)
			return
		}
	}
	fmt.Fprintf(b, "%syield %s\n", ind, regList(t.OutRegs))
}

// regList prints registers as a comma-separated list (_ for none).
func regList(regs []int) string {
	if len(regs) == 0 {
		return "_"
	}
	parts := make([]string, len(regs))
	for i, r := range regs {
		parts[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(parts, ", ")
}
