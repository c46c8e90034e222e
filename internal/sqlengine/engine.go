package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
)

// Engine-wide execution metrics (obs.Default).
var (
	mQueries      = obs.Default.Counter("engine.queries")
	mRowsOut      = obs.Default.Counter("engine.rows_out")
	mExecNanos    = obs.Default.Histogram("engine.exec_nanos")
	mPlanNanos    = obs.Default.Histogram("engine.plan_nanos")
	mZeroCopyCols = obs.Default.Counter("engine.zero_copy_cols")
)

// ExecMode selects the physical execution model.
type ExecMode int

const (
	// ModeColumnar is operator-at-a-time with full intermediate
	// materialization (MonetDB's model); MorselSize sets how its
	// operators split their inputs.
	ModeColumnar ExecMode = iota
	// ModeRow is tuple-at-a-time UDF crossing (SQLite/PostgreSQL): the
	// same operators, but a projection, filter or expand that calls a
	// UDF runs one row per morsel, so each call crosses per tuple.
	ModeRow
)

// String names the mode for EXPLAIN and experiment output.
func (m ExecMode) String() string {
	switch m {
	case ModeColumnar:
		return "columnar"
	case ModeRow:
		return "row"
	}
	return "?"
}

// Engine is one configured SQL database instance: a catalog plus a
// physical execution model and a UDF transport. The engine profiles in
// package engines wrap it with paper-specific settings.
type Engine struct {
	Name    string
	Catalog *Catalog
	Invoker ffi.Invoker
	Mode    ExecMode
	// Parallelism is the number of worker goroutines for partitionable
	// and blocking operators (morsel-driven execution): 0 = auto (every
	// core the runtime sees), 1 = legacy serial for A/B baselines.
	Parallelism int
	// MorselSize, when set, is the row count every partitionable input
	// splits at, serial or not (DuckDB's vector size is 2 048). 0 splits
	// at defaultMorselSize, and only when the pool runs in parallel.
	MorselSize int
	// stepBudget caps the PyLite statements one statement may execute
	// before it is interrupted (runaway-UDF guard, fixed by New). 0 = no
	// cap.
	stepBudget int64

	// q is the running statement's state. It is nil on the shared engine
	// and set on the view a statement executes on (see statement), which
	// is how the expression evaluators — they take no execCtx — reach it.
	q *execCtx
}

// New creates an engine with the given execution model and transport.
// stepBudget caps the PyLite statements one statement's UDFs may
// execute before it is interrupted (0 = no cap).
func New(name string, mode ExecMode, inv ffi.Invoker, stepBudget int64) *Engine {
	return &Engine{
		Name:        name,
		Catalog:     NewCatalog(),
		Invoker:     inv,
		Mode:        mode,
		Parallelism: 0, // auto: runtime.GOMAXPROCS(0) workers (see Workers)
		stepBudget:  stepBudget,
	}
}

// View returns a per-session execution view of the engine: a fresh
// Engine value sharing the catalog (tables, UDFs, epochs) and the UDF
// transport, but carrying its own Parallelism and MorselSize. A view
// is how the serving plane gives one session a different worker count
// without mutating the engine every other session executes on —
// Parallelism is read per query in the morsel scheduler, so flipping
// it on a shared Engine would race. n <= 0 keeps the parent's
// parallelism; morsel <= 0 keeps the parent's morsel size.
func (e *Engine) View(parallelism, morsel int) *Engine {
	if parallelism <= 0 {
		parallelism = e.Parallelism
	}
	if morsel <= 0 {
		morsel = e.MorselSize
	}
	return &Engine{
		Name:        e.Name,
		Catalog:     e.Catalog,
		Invoker:     e.Invoker,
		Mode:        e.Mode,
		Parallelism: parallelism,
		MorselSize:  morsel,
		stepBudget:  e.stepBudget,
	}
}

// Query parses, plans, optimizes and executes a SELECT, returning the
// result as a table.
func (e *Engine) Query(sql string) (*data.Table, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query under a context: cancellation or deadline expiry
// stops execution between plan operators, between morsels, and between
// PyLite statements (every UDF runs on a clone bound to this statement's
// context, see execCtx), returning ctx.Err in the chain. A DDL or DML
// statement runs under the same context (see Exec).
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*data.Table, error) {
	st, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		q, err := e.PlanQuery(s)
		if err != nil {
			return nil, err
		}
		return e.ExecuteCtx(ctx, q)
	case *ExplainStmt:
		sel, ok := s.Stmt.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("sql: EXPLAIN supports SELECT only")
		}
		q, err := e.PlanQuery(sel)
		if err != nil {
			return nil, err
		}
		t := data.NewTable("explain", data.Schema{{Name: "plan", Kind: data.KindString}})
		for _, line := range strings.Split(strings.TrimRight(q.Explain(), "\n"), "\n") {
			_ = t.AppendRow(data.Str(line))
		}
		return t, nil
	default:
		if err := e.execStmt(ctx, st); err != nil {
			return nil, err
		}
		return data.NewTable("ok", data.Schema{}), nil
	}
}

// PlanQuery plans and optimizes a parsed SELECT.
func (e *Engine) PlanQuery(st *SelectStmt) (*Query, error) {
	start := time.Now()
	q, err := PlanSelect(e.Catalog, st)
	if err != nil {
		return nil, err
	}
	Optimize(q, e.Catalog)
	mPlanNanos.Observe(float64(time.Since(start).Nanoseconds()))
	return q, nil
}

// Plan parses + plans a SELECT string (the EXPLAIN hook QFusor's client
// uses to obtain the optimizer's plan).
func (e *Engine) Plan(sql string) (*Query, error) {
	st, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	if ex, ok := st.(*ExplainStmt); ok {
		st = ex.Stmt
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: not a SELECT statement")
	}
	return e.PlanQuery(sel)
}

// Execute runs an optimized query through the configured executor.
func (e *Engine) Execute(q *Query) (*data.Table, error) {
	return e.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx runs an optimized query under a context (see QueryCtx).
func (e *Engine) ExecuteCtx(ctx context.Context, q *Query) (*data.Table, error) {
	t, _, err := e.ExecuteTracedCtx(ctx, q, nil)
	return t, err
}

// ExecuteTracedCtx runs an optimized query under a context, hanging one
// span per plan operator (rows in/out, wall time) off root when a tracer
// is attached; a nil root is the zero-overhead fast path Execute takes.
// The context is checked at every plan-operator entry, every morsel
// claim and every PyLite statement, so cancellation lands within one
// morsel/step budget rather than at query end. used is the exact per-UDF
// work of this execution — partial work included when err is non-nil.
func (e *Engine) ExecuteTracedCtx(ctx context.Context, q *Query, root *obs.Span) (*data.Table, []ffi.Usage, error) {
	start := time.Now()
	var ch *data.Chunk
	used, err := e.statement(ctx, root, func(qe *Engine) (err error) {
		ch, err = qe.execQuery(q)
		return err
	})
	if err != nil {
		return nil, used, err
	}
	mQueries.Inc()
	mRowsOut.Add(int64(ch.NumRows()))
	mExecNanos.Observe(float64(time.Since(start).Nanoseconds()))
	out := data.FromChunk("result", ch)
	out.Schema = q.Root.Schema
	for i, c := range out.Cols {
		if i < len(q.Root.Schema) {
			c.Name = q.Root.Schema[i].Name
		}
	}
	return out, used, nil
}

// execQuery runs a query's CTEs and root plan on the statement's view.
func (e *Engine) execQuery(q *Query) (*data.Chunk, error) {
	ectx, root := e.q, e.q.span
	if len(q.CTEs) > 0 {
		ectx.ctes = make(map[string]*data.Chunk, len(q.CTEs))
	}
	for _, cte := range q.CTEs {
		sp := root.Child("cte:" + cte.Name)
		ectx.span = sp
		ch, err := e.execPlan(cte.Plan, ectx)
		ectx.span = root
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("cte %s: %w", cte.Name, err)
		}
		sp.SetInt("rows_out", int64(ch.NumRows()))
		ectx.ctes[strings.ToLower(cte.Name)] = ch
	}
	ch, err := e.execPlan(q.Root, ectx)
	if err != nil {
		return nil, err
	}
	ectx.led.AddRowsOut(ch.NumRows())
	return ch, nil
}

// execPlan runs one plan node through the executor, wrapping it in a
// per-operator span when the query is traced, and returns its output
// materialized. Child executions recurse through here, so the span tree
// mirrors the plan tree.
func (e *Engine) execPlan(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	out, err := e.execRel(p, ectx, false)
	return out.ch, err
}

// execRel is execPlan for a parent that reads through row lists
// (through), which gets a filter's or a join's output as it is.
func (e *Engine) execRel(p *Plan, ectx *execCtx, through bool) (rel, error) {
	return e.observe(p, ectx, through, func() (rel, error) { return e.execColumnar(p, ectx) })
}

// observe runs op, an execution of plan node p, under the node's span
// and resource-ledger entry. With no tracer the hook is one nil check.
func (e *Engine) observe(p *Plan, ectx *execCtx, through bool, op func() (rel, error)) (rel, error) {
	if ectx.span == nil {
		return e.account(p, ectx, through, op)
	}
	parent := ectx.span
	sp := parent.Child("op:" + p.Op.String())
	annotateOpSpan(sp, p)
	ectx.span = sp
	out, err := e.account(p, ectx, through, op)
	ectx.span = parent
	sp.End()
	if err == nil {
		sp.SetInt("rows_out", int64(out.numRows()))
	}
	return out, err
}

// account runs op, an execution of plan node p, under the node's
// resource-ledger entry, once the statement's context allows it, and
// materializes its output unless the parent reads through.
func (e *Engine) account(p *Plan, ectx *execCtx, through bool, op func() (rel, error)) (rel, error) {
	if err := ectx.ctx.Err(); err != nil {
		return rel{}, err
	}
	opStart := time.Now()
	out, err := op()
	if err == nil && !through && out.takes != nil {
		out.ch, err = e.materialize(ectx, out)
		out.takes = nil
	}
	if ectx.led != nil {
		rows := 0
		if err == nil {
			rows = out.numRows()
		}
		ectx.led.OpObserve(opLedgerLabel(p), rows, time.Since(opStart).Nanoseconds())
	}
	return out, err
}

// opLedgerLabel names a plan operator for the resource ledger: the
// operator plus its scanned table or UDF, so `scan:listings` and
// `fused:__qf_fused1` attribute separately.
func opLedgerLabel(p *Plan) string {
	if p.UDF != nil {
		return p.Op.String() + ":" + p.UDF.Name
	}
	if p.Table != "" {
		return p.Op.String() + ":" + p.Table
	}
	return p.Op.String()
}

// annotateOpSpan attaches the operator's identifying payload to its
// span: scanned table, UDF name, fused-section membership.
func annotateOpSpan(sp *obs.Span, p *Plan) {
	switch p.Op {
	case OpScan, OpCTERef:
		sp.SetAttr("table", p.Table)
	case OpTableFunc, OpExpand, OpFused, OpFusedAgg:
		if p.UDF != nil {
			sp.SetAttr("udf", p.UDF.Name)
			if p.UDF.Fused {
				sp.SetAttr("section", "fused")
				sp.SetAttr("tier", string(p.UDF.Trace().Tier()))
			}
		}
	}
	sp.SetInt("est_rows", int64(p.EstRows))
}

// execCtx is the one object that carries a running statement's state:
// the executors' bookkeeping (CTE results, cancellation context, current
// span, resource ledger) and the statement's UDF state. Every UDF the
// statement touches executes on a per-query clone (ffi.UDF.QueryClone):
// the clone's interpreter view is constructed with this statement's
// context, step budget and step counter, it carries the statement's
// ledger, and its Stats count this statement's work only. Morsel workers
// clone from the query's clone. The catalog's UDFs and the registry's
// root runtime are never executed on, so concurrent statements share no
// mutable UDF state, and close() yields exact per-UDF attribution at a
// cost that depends on the UDFs the statement touched, not on the size
// of the catalog.
type execCtx struct {
	// ctes holds the materialized CTEs of a query (nil without CTEs).
	ctes map[string]*data.Chunk
	// ctx is the statement's cancellation context; never nil (Background
	// for the non-context entry points).
	ctx context.Context
	// span is the current parent span when the query is traced (nil
	// otherwise). Child plan nodes execute sequentially, so execPlan may
	// swap it in place while descending.
	span *obs.Span
	// led is the statement's resource ledger (nil when it runs
	// unaccounted — every hook is nil-safe).
	led *obs.ResourceLedger
	// budget is the engine's UDF step budget, drawn on by all clones.
	budget int64

	// clones is copy-on-write, so a hit reads the current list without a
	// lock; mu serializes the derivation of a new clone.
	clones atomic.Pointer[[]scopedUDF]
	mu     sync.Mutex
	intr   *pylite.Interrupt // built with the first clone
}

// scopedUDF pairs a catalog UDF with this statement's clone of it.
type scopedUDF struct{ src, clone *ffi.UDF }

// statement runs fn as one statement of the engine, on a per-query view:
// the engine's settings plus a fresh execCtx. It is the only place a
// view gets its execCtx and the only way into execPlan and the
// expression evaluators — queries and DML alike — so no UDF ever runs
// outside a statement. When fn returns, the statement's clones
// are absorbed and their Stats returned (see close).
func (e *Engine) statement(ctx context.Context, root *obs.Span, fn func(qe *Engine) error) (used []ffi.Usage, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	qe := e.View(0, 0)
	qe.q = &execCtx{ctx: ctx, span: root, led: obs.LedgerFromContext(ctx), budget: e.stepBudget}
	defer func() { used = qe.q.close() }()
	return nil, fn(qe)
}

// lookup returns the statement's clone of u, or nil before first touch.
func (q *execCtx) lookup(u *ffi.UDF) *ffi.UDF {
	if p := q.clones.Load(); p != nil {
		for _, c := range *p {
			if c.src == u {
				return c.clone
			}
		}
	}
	return nil
}

// clone returns the statement's clone of catalog UDF u, deriving it on
// first touch.
func (q *execCtx) clone(u *ffi.UDF) *ffi.UDF {
	if c := q.lookup(u); c != nil {
		return c
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if c := q.lookup(u); c != nil {
		return c
	}
	var have []scopedUDF
	if p := q.clones.Load(); p != nil {
		have = *p
	} else {
		ctx := q.ctx
		q.intr = pylite.NewInterrupt(ctx.Done(), func() error { return context.Cause(ctx) },
			q.budget, q.led.StepCounter())
	}
	c := u.QueryClone(q.intr, q.led)
	next := append(have[:len(have):len(have)], scopedUDF{u, c})
	q.clones.Store(&next)
	return c
}

// close ends the statement: each clone is absorbed into its catalog UDF
// (the cost model keeps learning from its Stats) and its Stats become
// the statement's usage of that UDF — the ledger's UDF rows and the
// returned list.
func (q *execCtx) close() []ffi.Usage {
	p := q.clones.Load()
	if p == nil {
		return nil
	}
	var used []ffi.Usage
	for _, c := range *p {
		c.src.AbsorbWorker(c.clone)
		st := c.clone.Stats.Snapshot()
		if st.IsZero() {
			continue
		}
		q.led.UDFObserve(c.src.Name, st.Calls, st.InRows, st.OutRows, st.WallNanos, st.WrapNanos)
		used = append(used, ffi.Usage{Name: c.src.Name, Fused: c.src.Fused, StatsSnapshot: st})
	}
	return used
}

// callUDF is the one place the engine decides how a scalar UDF call
// crosses: a fused wrapper runs in process as its trace
// (ffi.CallFusedVector) on every profile, any other UDF through the
// engine's transport. u is a statement's clone or a worker clone of one.
func (e *Engine) callUDF(u *ffi.UDF, args []*data.Column, n int) (*data.Column, error) {
	if u.Fused {
		cols, _, err := ffi.CallFusedVector(u, args, n, []string{u.Name}, []data.Kind{u.OutKind()})
		if err != nil {
			return nil, err
		}
		return cols[0], nil
	}
	return e.Invoker.CallScalar(u, args, n)
}

// callAggregate is the one place the engine decides how a UDF
// aggregate's fold crosses: inside a fused aggregate (fused set) it runs
// in process on every profile over the wrapper's unboxed output
// (ffi.FoldFusedAggregate); anywhere else through the engine's
// transport. u is a statement's clone.
func (e *Engine) callAggregate(u *ffi.UDF, fused bool, args []*data.Column, n int, groupIDs []int, g int) ([]data.Value, error) {
	if fused {
		return ffi.FoldFusedAggregate(u, args, n, groupIDs, g)
	}
	return e.Invoker.CallAggregate(u, args, n, groupIDs, g)
}
