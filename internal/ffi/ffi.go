// Package ffi is the wrapper layer between the SQL engine's unboxed
// columnar data and the PyLite UDF runtime's boxed values — the
// reproduction of the paper's CFFI wrapper mechanism (§4.1).
//
// Every cost the fusion optimizer reasons about lives here as a real
// code path: per-value boxing/unboxing (C↔JIT conversions), JSON
// (de)serialization of complex types, per-tuple foreign calls, and the
// out-of-process transport's full encode/decode round trip.
package ffi

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/resilience"
)

// Engine-wide wrapper-layer metrics (obs.Default). Resolved once so the
// hot paths pay only atomic adds.
var (
	mUDFCalls     = obs.Default.Counter("ffi.udf.calls")
	mUDFRowsIn    = obs.Default.Counter("ffi.udf.rows_in")
	mUDFRowsOut   = obs.Default.Counter("ffi.udf.rows_out")
	mUDFWallNanos = obs.Default.Counter("ffi.udf.wall_nanos")
	mUDFWrapNanos = obs.Default.Counter("ffi.udf.wrap_nanos")
	mUDFCallNanos = obs.Default.Histogram("ffi.udf.call_nanos")
	mBytesIn      = obs.Default.Counter("ffi.boundary.bytes_in")
	mBytesOut     = obs.Default.Counter("ffi.boundary.bytes_out")
	mIPCTrips     = obs.Default.Counter("ffi.ipc.roundtrips")
	mIPCBytes     = obs.Default.Counter("ffi.ipc.bytes")
	mTraceRows    = obs.Default.Counter("ffi.trace.rows") // rows through compiled (JIT) traces
)

// UDFKind classifies a UDF per the paper's design specifications (§4.2).
type UDFKind int

const (
	// Scalar returns one value per input row.
	Scalar UDFKind = iota
	// Aggregate follows the init-step-final model (a PyLite class).
	Aggregate
	// Table consumes an input-row generator and yields output rows
	// (used in FROM position).
	Table
	// Expand consumes one row and yields zero or more rows (the paper's
	// Expand variant of table UDFs, used in SELECT position).
	Expand
)

// String returns the decorator name of the kind.
func (k UDFKind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Aggregate:
		return "aggregate"
	case Table:
		return "table"
	case Expand:
		return "expand"
	}
	return fmt.Sprintf("udfkind(%d)", int(k))
}

// Stats is the stateful execution dictionary the fusion optimizer's cost
// model learns from (§5.2.2). All fields are updated atomically by the
// wrappers at run time.
type Stats struct {
	Calls     atomic.Int64
	InRows    atomic.Int64
	OutRows   atomic.Int64
	WallNanos atomic.Int64 // whole call, wrapper time included, on every transport
	WrapNanos atomic.Int64 // time spent converting/serializing at the boundary
}

// NanosPerRow returns the learned average processing cost per input row.
func (s *Stats) NanosPerRow() float64 {
	rows := s.InRows.Load()
	if rows == 0 {
		return 0
	}
	return float64(s.WallNanos.Load()) / float64(rows)
}

// WrapNanosPerRow returns the learned average wrapper cost per input row.
func (s *Stats) WrapNanosPerRow() float64 {
	rows := s.InRows.Load()
	if rows == 0 {
		return 0
	}
	return float64(s.WrapNanos.Load()) / float64(rows)
}

// Selectivity returns output rows / input rows (1 for scalars by
// construction, <1 or >1 for table/expand UDFs).
func (s *Stats) Selectivity() float64 {
	in := s.InRows.Load()
	if in == 0 {
		return 1
	}
	return float64(s.OutRows.Load()) / float64(in)
}

// Reset zeroes every statistic (used when a probe poisons partial
// stats). Adding a field to Stats only requires updating this method —
// callers must not reset fields one by one.
func (s *Stats) Reset() {
	s.Calls.Store(0)
	s.InRows.Store(0)
	s.OutRows.Store(0)
	s.WallNanos.Store(0)
	s.WrapNanos.Store(0)
}

// StatsSnapshot is a point-in-time copy of Stats, used by EXPLAIN
// ANALYZE to diff per-query UDF activity.
type StatsSnapshot struct {
	Calls, InRows, OutRows, WallNanos, WrapNanos int64
}

// Snapshot atomically reads every statistic.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Calls:     s.Calls.Load(),
		InRows:    s.InRows.Load(),
		OutRows:   s.OutRows.Load(),
		WallNanos: s.WallNanos.Load(),
		WrapNanos: s.WrapNanos.Load(),
	}
}

// Sub returns s minus b, field-wise.
func (s StatsSnapshot) Sub(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Calls:     s.Calls - b.Calls,
		InRows:    s.InRows - b.InRows,
		OutRows:   s.OutRows - b.OutRows,
		WallNanos: s.WallNanos - b.WallNanos,
		WrapNanos: s.WrapNanos - b.WrapNanos,
	}
}

// IsZero reports whether every field is zero.
func (s StatsSnapshot) IsZero() bool { return s == StatsSnapshot{} }

// Usage is one UDF's exact work inside one query: the Stats of the
// per-query clone the query executed on, read when the clone is absorbed
// back into the catalog UDF. It is the only source of per-query UDF
// attribution (resource ledger rows, EXPLAIN ANALYZE, section costs).
type Usage struct {
	Name  string
	Fused bool
	StatsSnapshot
}

// Merge adds a snapshot — typically a worker clone's totals — into s,
// so the profiler's cold-start heuristics see aggregated statistics
// rather than whichever worker happened to finish last.
func (s *Stats) Merge(b StatsSnapshot) {
	s.Calls.Add(b.Calls)
	s.InRows.Add(b.InRows)
	s.OutRows.Add(b.OutRows)
	s.WallNanos.Add(b.WallNanos)
	s.WrapNanos.Add(b.WrapNanos)
}

// UDF is a registered user-defined function: the developer's PyLite
// source wrapped with type metadata, bound to a runtime.
type UDF struct {
	Name     string
	Kind     UDFKind
	Params   []string
	InKinds  []data.Kind
	OutKinds []data.Kind // one entry for scalar/aggregate, N for table/expand
	OutNames []string

	// Fn is the function object (or class object for aggregates) inside
	// RT; fused wrappers have none (their trace is the function).
	Fn data.Value
	// RT is the PyLite runtime the UDF lives in.
	RT *pylite.Interp
	// GoFn, when set, is a native implementation (the engine-language
	// "C UDF" path: in-process, no interpreter, no JIT needed). It takes
	// precedence over Fn.
	GoFn func(args []data.Value) (data.Value, error)

	// Fused marks wrappers synthesized by the fusion optimizer.
	Fused bool
	// trace is a fused wrapper's body (native loop), set before the
	// optimizer publishes the wrapper (use Trace/SetTrace).
	trace atomic.Pointer[Trace]
	// EstCost optionally carries developer-supplied cost metadata
	// (CREATE FUNCTION ... COST n), in nanoseconds per row.
	EstCost float64

	// led is the resource ledger of the query a clone executes for (nil
	// on catalog UDFs and for unaccounted queries; every hook is nil-safe).
	led *obs.ResourceLedger

	Stats Stats
}

// QueryClone returns the instance of the UDF one query executes on: it
// shares the function object, the lowered trace and all metadata, but
// runs on its own interpreter view — constructed with the query's
// interrupt — carries the query's ledger, and accumulates its own Stats.
// Queries never execute on the catalog's UDF: whatever a query can
// mutate (step budget, VM argument scratch, counters) lives on its
// clones. The caller folds the clone back with AbsorbWorker when the
// query ends; its Stats are then the query's exact usage of u.
func (u *UDF) QueryClone(in *pylite.Interrupt, led *obs.ResourceLedger) *UDF {
	var rt *pylite.Interp
	if u.RT != nil {
		rt = u.RT.View(in)
	}
	return u.cloneOn(rt, led)
}

// WorkerClone returns a per-worker instance of a query's clone for
// morsel-parallel fused execution: same query (interrupt, ledger), own
// interpreter view and Stats, so workers never share VM scratch or
// serialize on counters. The caller must fold the clone back with
// AbsorbWorker after the barrier — dropping it would leave the profiler
// with only a fraction of the query's true activity.
func (u *UDF) WorkerClone() *UDF {
	var rt *pylite.Interp
	if u.RT != nil {
		rt = u.RT.Worker()
	}
	return u.cloneOn(rt, u.led)
}

func (u *UDF) cloneOn(rt *pylite.Interp, led *obs.ResourceLedger) *UDF {
	c := &UDF{
		Name: u.Name, Kind: u.Kind, Params: u.Params,
		InKinds: u.InKinds, OutKinds: u.OutKinds, OutNames: u.OutNames,
		Fn: u.Fn, RT: rt, GoFn: u.GoFn,
		Fused: u.Fused, EstCost: u.EstCost, led: led,
	}
	c.trace.Store(u.trace.Load())
	return c
}

// Trace returns a fused wrapper's trace (nil for every other UDF).
func (u *UDF) Trace() *Trace { return u.trace.Load() }

// SetTrace publishes a fused wrapper's trace.
func (u *UDF) SetTrace(t *Trace) { u.trace.Store(t) }

// AbsorbWorker folds a clone's learned statistics (UDF stats and
// interpreter counters) back into u, and the clone's interpreter steps
// and calls into its query's ledger and the process-wide counters
// (pylite.Interp.MergeStats): a clone's steps reach the ledger only
// here, or when an interrupt stops it.
func (u *UDF) AbsorbWorker(c *UDF) {
	if c == nil {
		return
	}
	u.Stats.Merge(c.Stats.Snapshot())
	if u.RT != nil && c.RT != nil && c.RT != u.RT {
		u.RT.MergeStats(c.RT)
	}
}

// OutKind returns the single output kind for scalar/aggregate UDFs.
func (u *UDF) OutKind() data.Kind {
	if len(u.OutKinds) > 0 {
		return u.OutKinds[0]
	}
	return data.KindString
}

// record updates the stateful statistics dictionary after a call, and
// mirrors the totals into the engine-wide metrics registry.
func (u *UDF) record(inRows, outRows int, wall, wrap time.Duration) {
	u.Stats.Calls.Add(1)
	u.Stats.InRows.Add(int64(inRows))
	u.Stats.OutRows.Add(int64(outRows))
	u.addTime(wall, wrap)
	mUDFCalls.Inc()
	mUDFRowsIn.Add(int64(inRows))
	mUDFRowsOut.Add(int64(outRows))
	mUDFCallNanos.Observe(float64(wall.Nanoseconds()))
}

// addTime adds wall and wrapper time to the UDF's Stats and to the
// process-wide ffi.udf.wall_nanos and ffi.udf.wrap_nanos, so the two
// always agree.
func (u *UDF) addTime(wall, wrap time.Duration) {
	u.Stats.WallNanos.Add(wall.Nanoseconds())
	u.Stats.WrapNanos.Add(wrap.Nanoseconds())
	mUDFWallNanos.Add(wall.Nanoseconds())
	mUDFWrapNanos.Add(wrap.Nanoseconds())
}

// CrossIn boxes one engine value into the UDF environment. String
// payloads are byte-copied: crossing the C↔Python boundary marshals the
// bytes into a fresh object on the other side — precisely the
// conversion cost fusion eliminates between consecutive operators.
func CrossIn(c *data.Column, i int) data.Value {
	v := c.Get(i)
	if v.Kind == data.KindString {
		v.S = strings.Clone(v.S)
	}
	return v
}

// BoxColumn converts an engine column into boxed UDF values; for complex
// (list/dict) columns this pays the JSON deserialization the paper's
// wrapper elimination removes, and string payloads are marshalled
// (copied) across the boundary.
func BoxColumn(c *data.Column, n int) []data.Value {
	out := make([]data.Value, n)
	bytes := int64(0)
	for i := 0; i < n; i++ {
		out[i] = CrossIn(c, i)
		bytes += int64(len(out[i].S))
	}
	mBytesIn.Add(bytes)
	return out
}

// UnboxValues converts boxed UDF results back into an engine column of
// the given kind, serializing complex values to JSON text and
// marshalling strings.
func UnboxValues(name string, kind data.Kind, vals []data.Value) *data.Column {
	col := data.NewColumnCap(name, kind, len(vals))
	bytes := int64(0)
	for _, v := range vals {
		if v.Kind == data.KindString {
			v.S = strings.Clone(v.S)
			bytes += int64(len(v.S))
		}
		col.AppendValue(v)
	}
	mBytesOut.Add(bytes)
	return col
}

// AggState is a live aggregate accumulator (one per group).
type AggState interface {
	Step(args []data.Value) error
	Final() (data.Value, error)
}

type pyAggState struct {
	rt   *pylite.Interp
	self data.Value
	step data.Value
	fin  data.Value
}

// Invoke calls the UDF's scalar implementation: the native ("C") path
// when present, the PyLite runtime otherwise. A panic in either becomes
// a *resilience.PanicError — one poisoned row must fail its query, not
// the process.
func (u *UDF) Invoke(args []data.Value) (data.Value, error) {
	return u.invokeOn(u.RT, args)
}

// invokeOn is Invoke on a given runtime view: a fused wrapper calls the
// UDFs it fuses on its own view, so they poll the host query's
// interrupt and never touch their catalog UDF's root runtime.
func (u *UDF) invokeOn(rt *pylite.Interp, args []data.Value) (v data.Value, err error) {
	defer resilience.Recover(&err)
	if u.GoFn != nil {
		return u.GoFn(args)
	}
	return rt.Call(u.Fn, args)
}

// NewAggState instantiates the UDF's aggregate class and calls init.
func NewAggState(u *UDF) (AggState, error) {
	if u.Kind != Aggregate {
		return nil, fmt.Errorf("ffi: %s is not an aggregate UDF", u.Name)
	}
	rt := u.RT
	self, err := rt.Call(u.Fn, nil)
	if err != nil {
		return nil, fmt.Errorf("ffi: instantiate %s: %w", u.Name, err)
	}
	ctx := rt.Ctx()
	initFn, err := pyAttr(ctx, self, "init")
	if err == nil {
		if _, err := rt.Call(initFn, nil); err != nil {
			return nil, fmt.Errorf("ffi: %s.init: %w", u.Name, err)
		}
	}
	stepFn, err := pyAttr(ctx, self, "step")
	if err != nil {
		return nil, fmt.Errorf("ffi: %s has no step method", u.Name)
	}
	finFn, err := pyAttr(ctx, self, "final")
	if err != nil {
		return nil, fmt.Errorf("ffi: %s has no final method", u.Name)
	}
	return &pyAggState{rt: rt, self: self, step: stepFn, fin: finFn}, nil
}

func pyAttr(ctx *pylite.Ctx, obj data.Value, name string) (data.Value, error) {
	inst, ok := obj.P.(*pylite.Instance)
	if obj.Kind != data.KindObject || !ok {
		return data.Null, fmt.Errorf("ffi: aggregate did not instantiate")
	}
	m, ok := inst.Class.Methods[name]
	if !ok {
		return data.Null, fmt.Errorf("ffi: no method %s", name)
	}
	return data.Object(&pylite.BoundMethod{Self: obj, Fn: m}), nil
}

func (a *pyAggState) Step(args []data.Value) error {
	_, err := a.rt.Call(a.step, args)
	return err
}

func (a *pyAggState) Final() (data.Value, error) {
	return a.rt.Call(a.fin, nil)
}
