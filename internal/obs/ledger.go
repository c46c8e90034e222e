package obs

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Per-query resource accounting: a ResourceLedger rides each query's
// context through the optimizer, both executors, the FFI boundary and
// the UDF runtime, accumulating what the query actually consumed — rows
// moved, morsels scheduled, FFI crossings, interpreter steps, heap
// allocation deltas — attributed at three levels: the query itself, its
// plan operators, and each UDF it called. The admission controller and
// learned cost model on the roadmap consume these snapshots; today they
// feed the flight recorder, the structured query log and the
// baseline-aware regression detector.
//
// Every method is nil-receiver safe (the Span idiom): code paths record
// unconditionally and an unaccounted query costs one pointer compare
// per hook.

// accountingOn is the process-wide ledger switch. On by default; the
// overhead A/B benchmark (E19) and embedders that want the last few
// percent flip it off.
var accountingOn atomic.Bool

func init() { accountingOn.Store(true) }

// SetAccounting toggles per-query resource accounting process-wide.
// When off, the query entry points stop creating ledgers; ledgers
// already in flight keep recording.
func SetAccounting(on bool) { accountingOn.Store(on) }

// AccountingEnabled reports whether per-query resource accounting is on.
func AccountingEnabled() bool { return accountingOn.Load() }

// qidBase is a per-process nonce so correlation IDs from different
// processes (or restarts) never collide in aggregated logs; qidSeq
// orders queries within the process.
var (
	qidBase = fmt.Sprintf("%x-%x", os.Getpid(), time.Now().UnixNano()&0xffffff)
	qidSeq  atomic.Int64
)

// NextQID returns a new query correlation ID: stable for the query's
// lifetime, unique across processes, and embedded in the flight
// recorder, the query log and Chrome trace exports so the three can be
// joined.
func NextQID() string {
	return fmt.Sprintf("%s-%d", qidBase, qidSeq.Add(1))
}

// allocCounters reads the runtime's cumulative heap allocation
// counters. Process-wide, not goroutine-scoped: phase deltas are
// approximate under concurrent queries (documented in DESIGN.md §12).
func allocCounters() (bytes, objects uint64) {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		bytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		objects = s[1].Value.Uint64()
	}
	return bytes, objects
}

// ledgerOp is one plan operator's accumulated usage.
type ledgerOp struct {
	calls int64
	rows  int64
	nanos int64
}

// ledgerUDF is one UDF's accumulated usage.
type ledgerUDF struct {
	calls     int64
	rowsIn    int64
	rowsOut   int64
	wallNanos int64
	wrapNanos int64
}

// PhaseDelta is the allocation delta attributed to one query phase
// (optimize, execute, fallback). Deltas are process-wide counters
// sampled at phase boundaries — approximate under concurrency.
type PhaseDelta struct {
	Name         string `json:"name"`
	AllocBytes   int64  `json:"alloc_bytes"`
	AllocObjects int64  `json:"alloc_objects"`
}

// OpUsage is one plan operator's usage in a LedgerSnapshot. Nanos is
// inclusive of the operator's children (span semantics).
type OpUsage struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	Rows  int64  `json:"rows"`
	Nanos int64  `json:"nanos"`
}

// UDFResource is one UDF's usage in a LedgerSnapshot.
type UDFResource struct {
	Name      string `json:"name"`
	Calls     int64  `json:"calls"`
	RowsIn    int64  `json:"rows_in"`
	RowsOut   int64  `json:"rows_out"`
	WallNanos int64  `json:"wall_nanos"`
	WrapNanos int64  `json:"wrap_nanos"`
}

// LedgerSnapshot is the immutable, JSON-marshalable form of a ledger,
// taken once when the query completes and shared with flight-recorder
// readers, the query log and /debug/resources.
type LedgerSnapshot struct {
	QID          string        `json:"qid"`
	RowsOut      int64         `json:"rows_out"`
	Morsels      int64         `json:"morsels"`
	FFICalls     int64         `json:"ffi_calls"`
	FFIRowsIn    int64         `json:"ffi_rows_in"`
	FFIRowsOut   int64         `json:"ffi_rows_out"`
	FFIWallNanos int64         `json:"ffi_wall_nanos"`
	FFIWrapNanos int64         `json:"ffi_wrap_nanos"`
	UDFSteps     int64         `json:"udf_steps"`
	VMRows       int64         `json:"vm_rows,omitempty"`
	VMBailRows   int64         `json:"vm_bail_rows,omitempty"`
	AllocBytes   int64         `json:"alloc_bytes"`
	AllocObjects int64         `json:"alloc_objects"`
	Retries      int64         `json:"retries,omitempty"`
	Fallbacks    int64         `json:"fallbacks,omitempty"`
	Phases       []PhaseDelta  `json:"phases,omitempty"`
	Ops          []OpUsage     `json:"ops,omitempty"`
	UDFs         []UDFResource `json:"udfs,omitempty"`
}

// ResourceLedger accumulates one query's resource usage. Hot-path
// fields are atomics (morsel workers and FFI paths update them
// concurrently); the per-operator and per-UDF maps are mutex-guarded —
// they are touched once per operator / per boundary crossing, not per
// row.
type ResourceLedger struct {
	qid   string
	start time.Time

	rowsOut      atomic.Int64
	morsels      atomic.Int64
	ffiCalls     atomic.Int64
	ffiRowsIn    atomic.Int64
	ffiRowsOut   atomic.Int64
	ffiWallNanos atomic.Int64
	ffiWrapNanos atomic.Int64
	udfSteps     atomic.Int64
	vmRows       atomic.Int64
	vmBailRows   atomic.Int64
	retries      atomic.Int64
	fallbacks    atomic.Int64

	mu         sync.Mutex
	phases     []PhaseDelta
	lastBytes  uint64
	lastObjs   uint64
	firstBytes uint64
	firstObjs  uint64
	ops        map[string]*ledgerOp
	udfs       map[string]*ledgerUDF
}

// NewLedger opens a ledger for one query: assigns its correlation ID
// and takes the opening allocation sample.
func NewLedger() *ResourceLedger {
	l := &ResourceLedger{
		qid:   NextQID(),
		start: time.Now(),
		ops:   make(map[string]*ledgerOp),
		udfs:  make(map[string]*ledgerUDF),
	}
	b, o := allocCounters()
	l.lastBytes, l.lastObjs = b, o
	l.firstBytes, l.firstObjs = b, o
	return l
}

// QID returns the query correlation ID ("" on a nil ledger).
func (l *ResourceLedger) QID() string {
	if l == nil {
		return ""
	}
	return l.qid
}

// MarkPhase closes the current phase: the allocation delta since the
// previous mark (or the ledger's opening sample) is attributed to name.
func (l *ResourceLedger) MarkPhase(name string) {
	if l == nil {
		return
	}
	b, o := allocCounters()
	l.mu.Lock()
	l.phases = append(l.phases, PhaseDelta{
		Name:         name,
		AllocBytes:   int64(b - l.lastBytes),
		AllocObjects: int64(o - l.lastObjs),
	})
	l.lastBytes, l.lastObjs = b, o
	l.mu.Unlock()
}

// AddRowsOut adds result rows produced by the query.
func (l *ResourceLedger) AddRowsOut(n int) {
	if l != nil {
		l.rowsOut.Add(int64(n))
	}
}

// AddMorsels adds scheduled morsels.
func (l *ResourceLedger) AddMorsels(n int) {
	if l != nil {
		l.morsels.Add(int64(n))
	}
}

// AddRetry counts one native-plan re-execution after a fused failure.
func (l *ResourceLedger) AddRetry() {
	if l != nil {
		l.retries.Add(1)
	}
}

// AddFallback counts one graceful degradation to the native plan.
func (l *ResourceLedger) AddFallback() {
	if l != nil {
		l.fallbacks.Add(1)
	}
}

// VMObserve attributes one vectorized-VM morsel execution: rows that
// went through the bytecode tier, of which bailRows were re-routed to
// the closure tier.
func (l *ResourceLedger) VMObserve(rows, bailRows int) {
	if l == nil {
		return
	}
	l.vmRows.Add(int64(rows))
	l.vmBailRows.Add(int64(bailRows))
}

// StepCounter exposes the query's interpreter-step counter
// (pylite.NewInterrupt). Each of the query's UDF runtime views counts
// its steps privately and adds them here when it is merged or
// interrupted, so the counter is exact once the statement has absorbed
// its clones, not while it runs. Nil on a nil ledger.
func (l *ResourceLedger) StepCounter() *atomic.Int64 {
	if l == nil {
		return nil
	}
	return &l.udfSteps
}

// UDFObserve records one UDF's usage by one plan execution — the Stats
// of the per-query clone the query ran on, read when the clone is
// absorbed — into the query-level FFI totals and the per-UDF row. The
// absorbed clones are the only attribution source, so the rows are
// exact however many queries share the engine.
func (l *ResourceLedger) UDFObserve(udf string, calls, inRows, outRows, wallNanos, wrapNanos int64) {
	if l == nil {
		return
	}
	l.ffiCalls.Add(calls)
	l.ffiRowsIn.Add(inRows)
	l.ffiRowsOut.Add(outRows)
	l.ffiWallNanos.Add(wallNanos)
	l.ffiWrapNanos.Add(wrapNanos)
	l.mu.Lock()
	u := l.udfs[udf]
	if u == nil {
		u = &ledgerUDF{}
		l.udfs[udf] = u
	}
	u.calls += calls
	u.rowsIn += inRows
	u.rowsOut += outRows
	u.wallNanos += wallNanos
	u.wrapNanos += wrapNanos
	l.mu.Unlock()
}

// OpObserve records one plan-operator execution (rows out, inclusive
// wall nanos).
func (l *ResourceLedger) OpObserve(name string, rows int, nanos int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	op := l.ops[name]
	if op == nil {
		op = &ledgerOp{}
		l.ops[name] = op
	}
	op.calls++
	op.rows += int64(rows)
	op.nanos += nanos
	l.mu.Unlock()
}

// Snapshot freezes the ledger into its JSON-marshalable form. The
// query-total allocation delta closes against a fresh sample, so a
// Snapshot without a final MarkPhase still accounts the tail.
func (l *ResourceLedger) Snapshot() *LedgerSnapshot {
	if l == nil {
		return nil
	}
	b, o := allocCounters()
	s := &LedgerSnapshot{
		QID:          l.qid,
		RowsOut:      l.rowsOut.Load(),
		Morsels:      l.morsels.Load(),
		FFICalls:     l.ffiCalls.Load(),
		FFIRowsIn:    l.ffiRowsIn.Load(),
		FFIRowsOut:   l.ffiRowsOut.Load(),
		FFIWallNanos: l.ffiWallNanos.Load(),
		FFIWrapNanos: l.ffiWrapNanos.Load(),
		UDFSteps:     l.udfSteps.Load(),
		VMRows:       l.vmRows.Load(),
		VMBailRows:   l.vmBailRows.Load(),
		Retries:      l.retries.Load(),
		Fallbacks:    l.fallbacks.Load(),
		AllocBytes:   int64(b - l.firstBytes),
		AllocObjects: int64(o - l.firstObjs),
	}
	l.mu.Lock()
	s.Phases = append(s.Phases, l.phases...)
	for name, op := range l.ops {
		s.Ops = append(s.Ops, OpUsage{Name: name, Calls: op.calls, Rows: op.rows, Nanos: op.nanos})
	}
	for name, u := range l.udfs {
		s.UDFs = append(s.UDFs, UDFResource{
			Name: name, Calls: u.calls, RowsIn: u.rowsIn, RowsOut: u.rowsOut,
			WallNanos: u.wallNanos, WrapNanos: u.wrapNanos,
		})
	}
	l.mu.Unlock()
	sort.Slice(s.Ops, func(i, j int) bool {
		if s.Ops[i].Nanos != s.Ops[j].Nanos {
			return s.Ops[i].Nanos > s.Ops[j].Nanos
		}
		return s.Ops[i].Name < s.Ops[j].Name
	})
	sort.Slice(s.UDFs, func(i, j int) bool {
		if s.UDFs[i].WallNanos != s.UDFs[j].WallNanos {
			return s.UDFs[i].WallNanos > s.UDFs[j].WallNanos
		}
		return s.UDFs[i].Name < s.UDFs[j].Name
	})
	return s
}

// ledgerKey is the context key the ledger travels under.
type ledgerKey struct{}

// ContextWithLedger attaches a ledger to ctx.
func ContextWithLedger(ctx context.Context, l *ResourceLedger) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ledgerKey{}, l)
}

// LedgerFromContext returns the ledger attached to ctx (nil when the
// query runs unaccounted).
func LedgerFromContext(ctx context.Context) *ResourceLedger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ledgerKey{}).(*ResourceLedger)
	return l
}
