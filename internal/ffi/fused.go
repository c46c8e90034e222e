package ffi

import (
	"fmt"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/pylite"
	"qfusor/internal/resilience"
)

// FaultFused is the chaos hook at the fused-wrapper entry: it fails (or
// delays, or panics) the optimized path specifically, which is what the
// circuit breaker and native-plan fallback must absorb.
var FaultFused = faultinject.Register("ffi.fused")

// Fused wrapper calling convention (§5.3): the JIT-generated wrapper
// receives each input column as one boxed list plus the row count, runs
// the fused loop entirely inside the UDF runtime (one long trace), and
// returns the output column(s) as lists. One boundary crossing per
// batch, no intermediate engine columns, no (de)serialization between
// the fused operators.
//
//	def __qf_fused(col_a, col_b, __n):
//	    __o0 = []
//	    for __i in range(__n):
//	        ...
//	    return [__o0]
//
// Aggregating wrappers additionally take the engine-computed group
// assignment (the exported internal group-by, §5.3.2):
//
//	def __qf_fusedagg(col_a, __gids, __g, __n):
//	    ...
//	    return [per_group_results...]
//
// Their source is the registered artifact only: an aggregating section
// is emitted solely with a compiled trace and always executes as that
// trace (RunTraceAgg), which groups after the fused filters.

// CallFusedVector invokes a fused wrapper over n rows of input columns,
// returning its output columns with the given names/kinds. u is a
// query's clone of the wrapper (QueryClone / WorkerClone): the crossing
// is attributed through its Stats and the ledger it carries.
func CallFusedVector(u *UDF, args []*data.Column, n int, outNames []string, outKinds []data.Kind) (_ []*data.Column, err error) {
	defer resilience.Recover(&err)
	if faultinject.Armed() {
		if err := faultinject.Fire(FaultFused); err != nil {
			return nil, err
		}
	}
	if tr := u.Trace(); tr != nil {
		// Tier dispatch: the vectorized VM program when one is published,
		// the closure-tier trace loop otherwise. Aggregating traces never
		// land here (they route through RunTraceAgg, which has its own VM
		// dispatch) — the guard keeps a misrouted one off the row-emitting
		// VM loop.
		var cols []*data.Column
		if vp := u.VMProg(); vp != nil && len(tr.Aggs) == 0 {
			cols, _, err = RunTraceVectorVM(u, vp, tr, args, n, outNames, outKinds)
		} else {
			cols, err = RunTraceVector(u, tr, args, n, outNames, outKinds)
		}
		if err != nil {
			return nil, err
		}
		if _, err := colRows(u, cols); err != nil {
			return nil, err
		}
		return cols, nil
	}
	start := time.Now()
	callArgs := make([]data.Value, 0, len(args)+1)
	for _, c := range args {
		callArgs = append(callArgs, data.NewList(BoxColumn(c, n)))
	}
	callArgs = append(callArgs, data.Int(int64(n)))
	wrap := time.Since(start)

	res, err := u.RT.Call(u.Fn, callArgs)
	if err != nil {
		return nil, wrapUDFErr(u, err)
	}

	ws := time.Now()
	cols, outRows, err := unpackFusedResult(u, res, outNames, outKinds)
	wrap += time.Since(ws)
	if err != nil {
		return nil, err
	}
	mInterpRows.Add(int64(n))
	u.record(n, outRows, time.Since(start), wrap)
	return cols, nil
}

// colRows returns the row count of a column-set result (0 when empty).
// A wrapper that yields ragged columns — some shorter than others —
// used to slip through with the first column's length; downstream
// operators would then silently truncate the longer columns. It now
// surfaces as a typed *LengthMismatchError naming the wrapper.
func colRows(u *UDF, cols []*data.Column) (int, error) {
	if len(cols) == 0 || cols[0] == nil {
		return 0, nil
	}
	rows := cols[0].Len()
	for _, c := range cols[1:] {
		if c != nil && c.Len() != rows {
			return 0, &LengthMismatchError{UDF: u.Name, Expected: rows, Got: c.Len()}
		}
	}
	return rows, nil
}

// unpackFusedResult converts the wrapper's list-of-lists result into
// engine columns. Ragged output columns are a wrapper bug and return a
// typed *LengthMismatchError instead of letting the short column
// truncate the result downstream.
func unpackFusedResult(u *UDF, res data.Value, outNames []string, outKinds []data.Kind) ([]*data.Column, int, error) {
	outer := res.List()
	if outer == nil {
		return nil, 0, fmt.Errorf("ffi: fused wrapper %s returned %s, want list of columns", u.Name, res.TypeName())
	}
	lists := outer.Items
	if len(lists) != len(outKinds) {
		return nil, 0, fmt.Errorf("ffi: fused wrapper %s returned %d columns, want %d", u.Name, len(lists), len(outKinds))
	}
	cols := make([]*data.Column, len(lists))
	rows := 0
	for i, lv := range lists {
		l := lv.List()
		if l == nil {
			return nil, 0, fmt.Errorf("ffi: fused wrapper %s output %d is %s, want list", u.Name, i, lv.TypeName())
		}
		cols[i] = UnboxValues(outNames[i], outKinds[i], l.Items)
		if cols[i].Len() > rows {
			rows = cols[i].Len()
		}
	}
	for _, c := range cols {
		if c.Len() != rows {
			return nil, 0, &LengthMismatchError{UDF: u.Name, Expected: rows, Got: c.Len()}
		}
	}
	return cols, rows, nil
}

// NewFusedUDF defines wrapper source in the runtime and registers the
// resulting function object as a fused UDF.
func NewFusedUDF(rt *pylite.Interp, name, source string, kind UDFKind, outNames []string, outKinds []data.Kind) (*UDF, error) {
	if err := rt.Exec(source); err != nil {
		return nil, fmt.Errorf("ffi: compiling fused wrapper %s: %w", name, err)
	}
	fn, ok := rt.Global(name)
	if !ok {
		return nil, fmt.Errorf("ffi: fused wrapper %s did not define itself", name)
	}
	// The wrapper IS the hot loop: it is called once per batch, so the
	// runtime's call-count heuristic would never fire. JIT-compile it at
	// registration time (§5.3: the fused logic is JIT-compiled and then
	// registered), together with the generator helper if one exists.
	if fv, isFn := fn.P.(*pylite.FuncValue); isFn {
		if c, err := pylite.Compile(fv); err == nil {
			fv.SetCompiled(c)
		}
	}
	if gv, ok := rt.Global(name + "_gen"); ok {
		if fv, isFn := gv.P.(*pylite.FuncValue); isFn {
			if c, err := pylite.Compile(fv); err == nil {
				fv.SetCompiled(c)
			}
		}
	}
	return &UDF{
		Name:     name,
		Kind:     kind,
		OutNames: outNames,
		OutKinds: outKinds,
		Fn:       fn,
		RT:       rt,
		Source:   source,
		Fused:    true,
	}, nil
}
