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
	// OutRegs lists the registers emitted per output column (non-agg).
	OutRegs []int
	// Distinct, when non-nil, dedups output rows on these registers.
	DistinctRegs []int
	// KeyRegs are the group-by key registers of an aggregating trace;
	// grouping runs inside the trace via the exported native group-by
	// (§5.3.2), after any fused filters.
	KeyRegs []int
	// Aggs, when non-empty, makes the trace aggregating: OutRegs is
	// ignored and key columns + one column per agg spec are produced.
	Aggs []TraceAgg
	// VM marks a trace Lower put on the bytecode VM tier: every TCall
	// runs its register program or its native GoFn, and the trace's rows
	// count toward the VM tier's metrics.
	VM bool
	// Linked, when set, is the whole-row program of a VM trace made of
	// nothing but program calls (see link): the row loop runs it in place
	// of the op list.
	Linked *pylite.Program
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

// TraceAgg is one aggregate computation of an aggregating trace.
type TraceAgg struct {
	// Kind: "count", "sum", "avg", "min", "max", or "udf".
	Kind string
	// Star marks COUNT(*).
	Star bool
	// ArgReg is the register holding the (per-row) argument value; -1
	// for COUNT(*).
	ArgReg int
	// UDF for Kind == "udf".
	UDF *UDF
}

// RunTraceVector executes a non-aggregating lowered trace over n input
// rows, on whichever tier Lower fixed for each call.
func RunTraceVector(u *UDF, t *Trace, args []*data.Column, n int, outNames []string, outKinds []data.Kind) ([]*data.Column, error) {
	start := time.Now()
	outs := make([]*data.Column, len(outKinds))
	for i := range outs {
		outs[i] = data.NewColumnCap(outNames[i], outKinds[i], n)
	}
	var seen map[string]bool
	if t.DistinctRegs != nil {
		seen = make(map[string]bool, n)
	}
	outRows := 0
	emit := func(regs []data.Value) error {
		if seen != nil {
			key := ""
			for _, r := range t.DistinctRegs {
				key += regs[r].Key() + "\x00"
			}
			if seen[key] {
				return nil
			}
			seen[key] = true
		}
		for i, r := range t.OutRegs {
			outs[i].AppendValue(regs[r])
		}
		outRows++
		return nil
	}
	if err := t.drive(u, args, n, emit); err != nil {
		return nil, err
	}
	u.record(n, outRows, time.Since(start), 0)
	return outs, nil
}

// drive runs the trace body once per row, on one register file for the
// whole morsel: once per input row with registers [0, NumIn) loaded
// from args, or — when the trace has a Source — once per row the source
// yields from a single call over all n input rows. It then counts the
// morsel's rows, and on the VM tier its bailed calls.
func (t *Trace) drive(u *UDF, args []*data.Column, n int, emit func([]data.Value) error) error {
	if t.frame < t.NumRegs {
		return fmt.Errorf("ffi: trace of %s run before Lower", u.Name)
	}
	regs := make([]data.Value, t.frame)
	for i, r := range t.ConstRegs {
		regs[r] = t.Consts[i]
	}
	bails := 0
	if t.Source == nil {
		for i := 0; i < n; i++ {
			for j, c := range args {
				regs[j] = vmColLoad(c, i)
			}
			if err := t.row(u, regs, &bails, emit); err != nil {
				return err
			}
		}
	} else if err := t.driveSource(u, args, n, regs, &bails, emit); err != nil {
		return err
	}
	mTraceRows.Add(int64(n))
	if t.VM {
		mVMMorsels.Inc()
		mVMRows.Add(int64(n))
		mVMBailRows.Add(int64(bails))
		u.led.VMObserve(n, bails)
	}
	return nil
}

// driveSource calls the trace's source table UDF once over all n input
// rows and runs the trace body on every row it yields.
func (t *Trace) driveSource(u *UDF, args []*data.Column, n int, regs []data.Value, bails *int, emit func([]data.Value) error) error {
	in := inputRows(args, n)
	defer in.Close()
	gv, err := u.RT.Call(t.Source.Fn, append([]data.Value{data.Object(in)}, t.SourceArgs...))
	if err != nil {
		return wrapUDFErr(t.Source, err)
	}
	return eachRow(t.Source, gv, func(v data.Value) error {
		bindRow(regs, t.SourceDsts, v)
		return t.row(u, regs, bails, emit)
	})
}

// eachRow feeds every row a generator UDF's result yields (or, for a
// plain iterable, every item) to fn: the one loop over a UDF's rows. An
// exception inside the UDF is attributed to it; fn's errors pass as
// they are.
func eachRow(src *UDF, gv data.Value, fn func(data.Value) error) error {
	it, err := pylite.ValueIter(gv)
	if err != nil {
		return wrapUDFErr(src, err)
	}
	defer it.Close()
	for {
		v, more, err := it.Next()
		if err != nil {
			return wrapUDFErr(src, err)
		}
		if !more {
			return nil
		}
		if err := fn(v); err != nil {
			return err
		}
	}
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
// called at the end of the chain. bails accumulates the row's bailed VM
// calls.
func runOps(u *UDF, ops []TraceOp, regs []data.Value, bails *int, emit func([]data.Value) error) error {
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case TCall:
			v, err := op.call(u, regs, bails)
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
			return eachRow(op.UDF, gv, func(v data.Value) error {
				bindRow(regs, op.Dsts, v)
				return runOps(u, rest, regs, bails, emit)
			})
		}
	}
	return emit(regs)
}

// aggState is the native per-group accumulator of an aggregating trace.
type aggState struct {
	count int64
	sum   float64
	sumI  data.IntSum // exact; the result while every value is an int
	isInt bool
	any   bool
	best  data.Value
	udf   AggState
}

// newAggStates allocates one fresh accumulator per aggregate spec; UDF
// aggregate states live on the host wrapper's runtime view rt.
func newAggStates(rt *pylite.Interp, t *Trace) ([]aggState, error) {
	sts := make([]aggState, len(t.Aggs))
	for ai, spec := range t.Aggs {
		if spec.Kind == "udf" {
			st, err := newAggStateOn(rt, spec.UDF)
			if err != nil {
				return nil, err
			}
			sts[ai].udf = st
		} else {
			sts[ai].isInt = true
		}
	}
	return sts, nil
}

// stepAggState folds one row's value into an accumulator.
func stepAggState(st *aggState, spec *TraceAgg, v data.Value) error {
	switch spec.Kind {
	case "count":
		if spec.Star || !v.IsNull() {
			st.count++
		}
	case "sum", "avg":
		if v.IsNull() {
			return nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil
		}
		if v.Kind == data.KindFloat {
			st.isInt = false
		}
		st.sum += f
		st.sumI.Add(v.I)
		st.count++
		st.any = true
	case "min", "max":
		if v.IsNull() {
			return nil
		}
		if !st.any {
			st.best = v
			st.any = true
			return nil
		}
		if data.Outranks(v, st.best, spec.Kind == "max") {
			st.best = v
		}
	case "udf":
		return st.udf.Step([]data.Value{v})
	}
	return nil
}

// mergeAggState folds one partition's accumulator (src) into dst. The
// rules: count adds; sum/avg add both sum forms and the non-null count
// (avg finalizes from the merged ratio — partial averages are never
// averaged); min/max keep the partial winner that outranks the other
// (data.Outranks, under which a NaN loses to every value), the earlier
// partition's on a tie, as the serial fold keeps the first seen; UDF
// states merge through the decomposable-aggregate hook.
func mergeAggState(dst, src *aggState, spec *TraceAgg) error {
	switch spec.Kind {
	case "count":
		dst.count += src.count
	case "sum", "avg":
		if !src.any {
			return nil
		}
		dst.sum += src.sum
		dst.sumI.Merge(src.sumI)
		dst.count += src.count
		if !src.isInt {
			dst.isInt = false
		}
		dst.any = true
	case "min", "max":
		if !src.any {
			return nil
		}
		if !dst.any {
			dst.best = src.best
			dst.any = true
			return nil
		}
		if data.Outranks(src.best, dst.best, spec.Kind == "max") {
			dst.best = src.best
		}
	case "udf":
		m, ok := dst.udf.(AggStateMerger)
		if !ok {
			return fmt.Errorf("ffi: aggregate %s is not decomposable", spec.UDF.Name)
		}
		return m.Merge(src.udf)
	}
	return nil
}

// finalizeAggValue turns an accumulator into the group's output value.
func finalizeAggValue(st *aggState, spec *TraceAgg) (data.Value, error) {
	switch spec.Kind {
	case "count":
		return data.Int(st.count), nil
	case "sum":
		if !st.any {
			return data.Null, nil
		}
		if !st.isInt {
			return data.Float(st.sum), nil
		}
		v, err := st.sumI.Int()
		if err != nil {
			return data.Null, fmt.Errorf("SUM: %w", err)
		}
		return data.Int(v), nil
	case "avg":
		if !st.any || st.count == 0 {
			return data.Null, nil
		}
		return data.Float(st.sum / float64(st.count)), nil
	case "min", "max":
		if !st.any {
			return data.Null, nil
		}
		return st.best, nil
	case "udf":
		return st.udf.Final()
	}
	return data.Null, fmt.Errorf("ffi: unknown trace aggregate %s", spec.Kind)
}

// RunTraceAgg executes an aggregating trace. Group assignment happens
// inside the trace, after fused filters, via the native hash group-by —
// the reproduction of invoking the engine's exported grouping functions
// from within the JIT (§5.3.2). Output columns are the group keys (in
// first-seen order) followed by the aggregates. It is the one-partition
// case of the partial runner: nothing is merged, so it serves every
// aggregate kind, mergeable or not.
func RunTraceAgg(u *UDF, t *Trace, args []*data.Column, n int, outNames []string, outKinds []data.Kind) ([]*data.Column, error) {
	pt, err := RunTraceAggPartial(u, t, args, n)
	if err != nil {
		return nil, err
	}
	return FinalizeTraceAggPartials(u, t, []*TraceAggPartial{pt}, outNames, outKinds)
}

// PartialMergeable reports whether the trace's aggregates can run as
// per-worker partial states merged at the barrier: live states keep the
// sum/count decomposition for avg, and UDF aggregates qualify when
// their state is decomposable (a merge hook exists).
func (t *Trace) PartialMergeable() bool {
	if len(t.Aggs) == 0 {
		return false
	}
	for _, a := range t.Aggs {
		switch a.Kind {
		case "count", "sum", "min", "max", "avg":
		case "udf":
			if !DecomposableAgg(a.UDF) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// TraceAggPartial is one worker's partial group table from
// RunTraceAggPartial: group keys in first-seen order plus live
// aggregate states. FinalizeTraceAggPartials merges a set of partials
// (in partition order) into the final output columns.
type TraceAggPartial struct {
	keys    []string
	keyRows [][]data.Value
	states  [][]aggState
}

// RunTraceAggPartial executes an aggregating lowered trace over one
// partition, returning the live partial states instead of finalized
// columns. Each row's scalar prefix runs through the same row loop as
// RunTraceVector; grouping and accumulation are tier-independent. The
// crossing and its input rows are recorded on u's stats here; the
// finalize step adds the output groups.
func RunTraceAggPartial(u *UDF, t *Trace, args []*data.Column, n int) (*TraceAggPartial, error) {
	start := time.Now()
	pt := &TraceAggPartial{}
	groupIdx := map[string]int{}
	var stepErr error
	emit := func(regs []data.Value) error {
		var kb []byte
		for _, r := range t.KeyRegs {
			kb = append(kb, regs[r].Key()...)
			kb = append(kb, 0)
		}
		gid, ok := groupIdx[string(kb)]
		if !ok {
			keys := make([]data.Value, len(t.KeyRegs))
			for ki, r := range t.KeyRegs {
				keys[ki] = regs[r]
			}
			sts, err := newAggStates(u.RT, t)
			if err != nil {
				stepErr = err
				return err
			}
			gid = len(pt.states)
			k := string(kb)
			groupIdx[k] = gid
			pt.keys = append(pt.keys, k)
			pt.keyRows = append(pt.keyRows, keys)
			pt.states = append(pt.states, sts)
		}
		for ai := range t.Aggs {
			spec := &t.Aggs[ai]
			var v data.Value
			if spec.ArgReg >= 0 {
				v = regs[spec.ArgReg]
			}
			if err := stepAggState(&pt.states[gid][ai], spec, v); err != nil {
				stepErr = err
				return stepErr
			}
		}
		return nil
	}
	if err := t.drive(u, args, n, emit); err != nil {
		return nil, err
	}
	if stepErr != nil {
		return nil, stepErr
	}
	u.record(n, 0, time.Since(start), 0)
	return pt, nil
}

// FinalizeTraceAggPartials merges partial group tables in partition
// order — reproducing the serial first-seen group order — and finalizes
// them into the trace's output columns.
func FinalizeTraceAggPartials(u *UDF, t *Trace, parts []*TraceAggPartial, outNames []string, outKinds []data.Kind) ([]*data.Column, error) {
	start := time.Now()
	nKeys := len(t.KeyRegs)
	idx := map[string]int{}
	var keyRows [][]data.Value
	var states [][]aggState
	for _, pt := range parts {
		if pt == nil {
			continue
		}
		for gi, k := range pt.keys {
			g, ok := idx[k]
			if !ok {
				idx[k] = len(states)
				keyRows = append(keyRows, pt.keyRows[gi])
				states = append(states, pt.states[gi])
				continue
			}
			for ai := range t.Aggs {
				if err := mergeAggState(&states[g][ai], &pt.states[gi][ai], &t.Aggs[ai]); err != nil {
					return nil, err
				}
			}
		}
	}
	g := len(states)
	// Global aggregate over zero rows still produces one (empty) group.
	if nKeys == 0 && g == 0 {
		sts, err := newAggStates(u.RT, t)
		if err != nil {
			return nil, err
		}
		keyRows = append(keyRows, nil)
		states = append(states, sts)
		g = 1
	}
	outs := make([]*data.Column, nKeys+len(t.Aggs))
	for ki := 0; ki < nKeys; ki++ {
		col := data.NewColumnCap(outNames[ki], outKinds[ki], g)
		for gi := 0; gi < g; gi++ {
			col.AppendValue(keyRows[gi][ki])
		}
		outs[ki] = col
	}
	for ai := range t.Aggs {
		spec := &t.Aggs[ai]
		col := data.NewColumnCap(outNames[nKeys+ai], outKinds[nKeys+ai], g)
		for gi := 0; gi < g; gi++ {
			v, err := finalizeAggValue(&states[gi][ai], spec)
			if err != nil {
				return nil, err
			}
			col.AppendValue(v)
		}
		outs[nKeys+ai] = col
	}
	u.recordMerge(g, time.Since(start))
	return outs, nil
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
	if len(t.Aggs) > 0 {
		b.WriteString("    groups = {}\n")
	}
	if t.DistinctRegs != nil {
		b.WriteString("    seen = set()\n")
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
	if len(t.Aggs) > 0 {
		b.WriteString("    return groups\n")
	}
	return b.String()
}

// renderOps prints an op list at the given indent depth, then the row's
// end: the distinct check and the row's yield, or its group step.
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
	if t.DistinctRegs != nil {
		key := "[" + regList(t.DistinctRegs) + "]"
		fmt.Fprintf(b, "%sif %s in seen:\n%s    continue\n%sseen.add(%s)\n", ind, key, ind, ind, key)
	}
	if len(t.Aggs) == 0 {
		fmt.Fprintf(b, "%syield %s\n", ind, regList(t.OutRegs))
		return
	}
	keys := ""
	if len(t.KeyRegs) > 0 {
		keys = regList(t.KeyRegs)
	}
	fmt.Fprintf(b, "%sg = group(groups, [%s])\n", ind, keys)
	for _, a := range t.Aggs {
		var args []string
		if a.Kind == "udf" {
			args = append(args, a.UDF.Name)
		}
		if a.ArgReg >= 0 {
			args = append(args, fmt.Sprintf("r%d", a.ArgReg))
		}
		fmt.Fprintf(b, "%sg.%s(%s)\n", ind, a.Kind, strings.Join(args, ", "))
	}
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
