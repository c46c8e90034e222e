package ffi

import (
	"fmt"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/pylite"
)

// Chaos hooks at the in-process FFI boundary, one per call kind. Both
// in-process transports fire them at call entry (the process transport
// reuses VectorInvoker worker-side, so they cover that path too).
var (
	FaultScalar    = faultinject.Register("ffi.scalar")
	FaultAggregate = faultinject.Register("ffi.aggregate")
	FaultExpand    = faultinject.Register("ffi.expand")
	FaultTable     = faultinject.Register("ffi.table")
)

// fireBoundary fires the chaos hook for one call kind; nil (one atomic
// load) unless a chaos test or -fault flag armed it.
func fireBoundary(k UDFKind) error {
	if !faultinject.Armed() {
		return nil
	}
	switch k {
	case Scalar:
		return faultinject.Fire(FaultScalar)
	case Aggregate:
		return faultinject.Fire(FaultAggregate)
	case Expand:
		return faultinject.Fire(FaultExpand)
	default:
		return faultinject.Fire(FaultTable)
	}
}

// Invoker is a UDF transport: how the engine crosses into the UDF
// execution environment. Each engine profile picks one (§6.4.3):
//
//   - VectorInvoker  — in-process, one foreign call per column batch
//     (MonetDB-style vectorized UDFs)
//   - TupleInvoker   — in-process, one foreign call per row for scalar
//     UDFs (SQLite-style tuple-at-a-time C UDFs); VectorInvoker's
//     aggregate, expand and table calls
//   - ProcessInvoker — out-of-process: every batch is serialized to a
//     worker and results serialized back (PostgreSQL pl/python style)
//
// A fused wrapper never goes through an Invoker: the engine runs it in
// process as its trace (CallFusedVector) on every profile, and decides
// so in one place (the SQL engine's Engine.callUDF).
type Invoker interface {
	// Name identifies the transport in EXPLAIN output and experiments.
	Name() string
	// CallScalar applies a scalar UDF over n rows of argument columns.
	CallScalar(u *UDF, args []*data.Column, n int) (*data.Column, error)
	// CallAggregate folds a scalar column set into per-group results.
	// groupIDs[i] gives the group of row i; g is the group count.
	CallAggregate(u *UDF, args []*data.Column, n int, groupIDs []int, g int) ([]data.Value, error)
	// CallExpand calls an expand UDF once per row of n rows of argument
	// columns. The rows the calls yield come back in input order as one
	// chunk of the UDF's output columns; parent[j] is the input row that
	// yielded output row j.
	CallExpand(u *UDF, args []*data.Column, n int) (out *data.Chunk, parent []int, err error)
	// CallTable feeds an input chunk through a table UDF.
	CallTable(u *UDF, input *data.Chunk, extra []data.Value) (*data.Chunk, error)
}

// ---------------------------------------------------------------------
// VectorInvoker
// ---------------------------------------------------------------------

// VectorInvoker calls UDFs in-process with one boundary crossing per
// column batch.
type VectorInvoker struct{}

// Name implements Invoker.
func (VectorInvoker) Name() string { return "vector" }

// CallScalar implements Invoker.
func (VectorInvoker) CallScalar(u *UDF, args []*data.Column, n int) (*data.Column, error) {
	if err := fireBoundary(Scalar); err != nil {
		return nil, err
	}
	start := time.Now()
	var wrap time.Duration
	ws := time.Now()
	boxed := make([][]data.Value, len(args))
	for i, c := range args {
		boxed[i] = BoxColumn(c, n)
	}
	wrap += time.Since(ws)

	results := make([]data.Value, n)
	row := make([]data.Value, len(args))
	for i := 0; i < n; i++ {
		for j := range boxed {
			row[j] = boxed[j][i]
		}
		v, err := u.Invoke(row)
		if err != nil {
			return nil, wrapUDFErr(u, err)
		}
		results[i] = v
	}

	ws = time.Now()
	out := UnboxValues(u.Name, u.OutKind(), results)
	wrap += time.Since(ws)
	u.record(n, n, time.Since(start), wrap)
	return out, nil
}

// CallAggregate implements Invoker.
func (VectorInvoker) CallAggregate(u *UDF, args []*data.Column, n int, groupIDs []int, g int) ([]data.Value, error) {
	if err := fireBoundary(Aggregate); err != nil {
		return nil, err
	}
	start := time.Now()
	boxed := make([][]data.Value, len(args))
	for i, c := range args {
		boxed[i] = BoxColumn(c, n)
	}
	wrap := time.Since(start)
	out, err := foldAggregate(u, len(args), n, groupIDs, g, func(i int, row []data.Value) {
		for j := range boxed {
			row[j] = boxed[j][i]
		}
	})
	if err != nil {
		return nil, err
	}
	u.record(n, g, time.Since(start), wrap)
	return out, nil
}

// FoldFusedAggregate folds a UDF aggregate over argument columns a fused
// wrapper yielded. Like the wrapper's own registers, the values load
// unboxed (vmColLoad): they never leave the fused section, so they cross
// no boundary and pay no marshalling.
func FoldFusedAggregate(u *UDF, args []*data.Column, n int, groupIDs []int, g int) ([]data.Value, error) {
	start := time.Now()
	out, err := foldAggregate(u, len(args), n, groupIDs, g, func(i int, row []data.Value) {
		for j, c := range args {
			row[j] = vmColLoad(c, i)
		}
	})
	if err != nil {
		return nil, err
	}
	u.record(n, g, time.Since(start), 0)
	return out, nil
}

// foldAggregate is the one fold of a UDF aggregate: one state per group,
// stepped with each of the n rows load fills (width values) in row
// order — groupIDs[i] is row i's group, every row is in group 0 when it
// is nil — then finalized per group.
func foldAggregate(u *UDF, width, n int, groupIDs []int, g int, load func(i int, row []data.Value)) ([]data.Value, error) {
	states := make([]AggState, g)
	for i := range states {
		st, err := NewAggState(u)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	row := make([]data.Value, width)
	for i := 0; i < n; i++ {
		load(i, row)
		gid := 0
		if groupIDs != nil {
			gid = groupIDs[i]
		}
		if err := states[gid].Step(row); err != nil {
			return nil, wrapUDFErr(u, err)
		}
	}
	out := make([]data.Value, g)
	for i, st := range states {
		v, err := st.Final()
		if err != nil {
			return nil, wrapUDFErr(u, err)
		}
		out[i] = v
	}
	return out, nil
}

// CallExpand implements Invoker: each row's generator drains straight
// into the output columns.
func (VectorInvoker) CallExpand(u *UDF, args []*data.Column, n int) (*data.Chunk, []int, error) {
	if err := fireBoundary(Expand); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var wrap time.Duration
	ws := time.Now()
	boxed := make([][]data.Value, len(args))
	for i, c := range args {
		boxed[i] = BoxColumn(c, n)
	}
	wrap += time.Since(ws)

	out := outColumns(u)
	var parent []int
	row := make([]data.Value, len(args))
	for i := 0; i < n; i++ {
		for j := range boxed {
			row[j] = boxed[j][i]
		}
		m, err := drain(u, row, out)
		if err != nil {
			return nil, nil, err
		}
		for ; m > 0; m-- {
			parent = append(parent, i)
		}
	}
	u.record(n, len(parent), time.Since(start), wrap)
	return data.NewChunk(out...), parent, nil
}

// CallTable implements Invoker: the UDF consumes the chunk's rows as one
// lazy input generator and drains into the output columns.
func (VectorInvoker) CallTable(u *UDF, input *data.Chunk, extra []data.Value) (*data.Chunk, error) {
	if err := fireBoundary(Table); err != nil {
		return nil, err
	}
	start := time.Now()
	n := input.NumRows()
	in := inputRows(u.RT, input.Cols, n)
	defer in.Close()
	out := outColumns(u)
	m, err := drain(u, append([]data.Value{data.Object(in)}, extra...), out)
	if err != nil {
		return nil, err
	}
	u.record(n, m, time.Since(start), 0)
	return data.NewChunk(out...), nil
}

// drain calls a generator UDF once and appends every row it yields to
// out, its output columns, under the row rule; it returns the number of
// rows.
func drain(u *UDF, args []data.Value, out []*data.Column) (rows int, err error) {
	gv, err := u.RT.Call(u.Fn, args)
	if err != nil {
		return 0, wrapUDFErr(u, err)
	}
	err = eachRow(u.RT, u, gv, func(v data.Value) error {
		for i, c := range out {
			c.AppendValue(rowCell(v, len(out), i))
		}
		rows++
		return nil
	})
	return rows, err
}

// outColumns makes a generator UDF's empty output columns, one per
// declared output kind, named by OutNames (c<i> past their end).
func outColumns(u *UDF) []*data.Column {
	cols := make([]*data.Column, len(u.OutKinds))
	for i, k := range u.OutKinds {
		name := fmt.Sprintf("c%d", i)
		if i < len(u.OutNames) {
			name = u.OutNames[i]
		}
		cols[i] = data.NewColumn(name, k)
	}
	return cols
}

// inputRows is the lazy input generator a table UDF consumes (the
// paper's inp_datagen): one value per row of cols, a list when there are
// several columns.
func inputRows(rt *pylite.Interp, cols []*data.Column, n int) *pylite.Generator {
	return pylite.NewGenerator(rt, func(_ *pylite.Interp, yield func(data.Value) error) error {
		row := make([]data.Value, len(cols))
		for i := 0; i < n; i++ {
			for j, c := range cols {
				row[j] = c.Get(i)
			}
			var v data.Value
			if len(row) == 1 {
				v = row[0]
			} else {
				v = data.NewList(append([]data.Value(nil), row...))
			}
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	})
}

func wrapUDFErr(u *UDF, err error) error {
	if pe, ok := pylite.IsPyError(err); ok {
		return fmt.Errorf("udf %s: %w", u.Name, pe)
	}
	return fmt.Errorf("udf %s: %w", u.Name, err)
}

// ---------------------------------------------------------------------
// TupleInvoker
// ---------------------------------------------------------------------

// TupleInvoker crosses the boundary once per row: every scalar call
// re-boxes its arguments and unboxes its result (SQLite's model). Its
// aggregate, expand and table calls are VectorInvoker's, which already
// step the UDF once per row.
type TupleInvoker struct{ VectorInvoker }

// Name implements Invoker.
func (TupleInvoker) Name() string { return "tuple" }

// CallScalar implements Invoker.
func (TupleInvoker) CallScalar(u *UDF, args []*data.Column, n int) (*data.Column, error) {
	if err := fireBoundary(Scalar); err != nil {
		return nil, err
	}
	start := time.Now()
	var wrap time.Duration
	out := data.NewColumnCap(u.Name, u.OutKind(), n)
	row := make([]data.Value, len(args))
	for i := 0; i < n; i++ {
		ws := time.Now()
		for j, c := range args {
			row[j] = CrossIn(c, i) // per-tuple conversion
		}
		wrap += time.Since(ws)
		v, err := u.Invoke(row)
		if err != nil {
			return nil, wrapUDFErr(u, err)
		}
		ws = time.Now()
		out.AppendValue(v) // per-tuple conversion back
		wrap += time.Since(ws)
	}
	u.record(n, n, time.Since(start), wrap)
	return out, nil
}
