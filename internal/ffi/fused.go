package ffi

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/resilience"
)

// FaultFused is the chaos hook at the fused-wrapper entry: it fails (or
// delays, or panics) the optimized path specifically, which is what the
// circuit breaker and native-plan fallback must absorb.
var FaultFused = faultinject.Register("ffi.fused")

// Fused wrapper calling convention (§5.3): a fused wrapper is its Trace.
// The engine hands it each input column plus the row count once per
// batch; the trace loads each row's values into its registers (or feeds
// them to its source table UDF), runs the fused operators without
// leaving the loop, and appends the surviving rows to the output
// columns. One boundary crossing per batch, no intermediate engine
// columns, no (de)serialization between the fused operators. An
// aggregating section's wrapper is no different: it yields its group
// keys and aggregate arguments, and the engine's own aggregate folds
// them (the paper's call back into the engine for group-by, §5.3.2). A
// fused DISTINCT is such a section with no aggregates, so no wrapper
// keeps state across rows and any split of its input into batches
// gives the same result.

// CallFusedVector invokes a fused wrapper over n rows of input columns,
// returning its output columns with the given names/kinds and the
// number of rows it yielded. u is a query's clone of the wrapper
// (QueryClone / WorkerClone): the crossing is attributed through its
// Stats and the ledger it carries.
func CallFusedVector(u *UDF, args []*data.Column, n int, outNames []string, outKinds []data.Kind) (_ []*data.Column, rows int, err error) {
	defer resilience.Recover(&err)
	if faultinject.Armed() {
		if err := faultinject.Fire(FaultFused); err != nil {
			return nil, 0, err
		}
	}
	tr := u.Trace()
	if tr == nil {
		return nil, 0, fmt.Errorf("ffi: fused wrapper %s has no trace", u.Name)
	}
	cols, rows, err := RunTraceVector(u, tr, args, n, outNames, outKinds)
	if err != nil {
		return nil, 0, err
	}
	if _, err := colRows(u, cols); err != nil {
		return nil, 0, err
	}
	return cols, rows, nil
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
