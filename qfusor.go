// Package qfusor is the public API of the QFusor reproduction: a
// pluggable UDF-query optimizer (EDBT 2026) over a self-contained SQL
// engine substrate with a Python-subset UDF runtime.
//
// A DB bundles an engine profile (MonetDB-, PostgreSQL-, SQLite-,
// DuckDB-, PySpark- or dbX-style execution), a UDF registry backed by
// the PyLite runtime with a tracing JIT, and a QFusor optimizer plugged
// into the engine. Queries issued through Query go through the full
// QFusor pipeline — plan probing, data-flow-graph construction,
// fusible-section discovery, fused-wrapper JIT code generation and plan
// rewrite; QueryNative bypasses it for comparison.
//
//	db, _ := qfusor.Open(qfusor.MonetDB)
//	defer db.Close()
//	db.Define(`
//	@scalarudf
//	def upname(s: str) -> str:
//	    return s.upper()
//	`)
//	db.Exec("CREATE TABLE t (name string)")
//	db.Exec("INSERT INTO t VALUES ('ada'), ('grace')")
//	rows, _ := db.Query("SELECT upname(name) FROM t")
package qfusor

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/obshttp"
	"qfusor/internal/pylite"
	"qfusor/internal/resilience"
	"qfusor/internal/server"
	"qfusor/internal/workload"
)

// Profile selects the engine configuration a DB runs on.
type Profile = engines.Profile

// The six engine profiles of the paper's evaluation.
const (
	MonetDB    = engines.Monet
	PostgreSQL = engines.Postgres
	SQLite     = engines.SQLite
	DuckDB     = engines.Duck
	PySpark    = engines.Spark
	DBX        = engines.DBX
)

// Re-exported data types for building tables programmatically.
type (
	// Table is a named columnar relation.
	Table = data.Table
	// Schema describes a table's columns.
	Schema = data.Schema
	// Field is one schema column.
	Field = data.Field
	// Value is a boxed dynamic value.
	Value = data.Value
	// Kind enumerates value types.
	Kind = data.Kind
)

// Value constructors and kinds.
var (
	Null       = data.Null
	Int        = data.Int
	Float      = data.Float
	Str        = data.Str
	Bool       = data.Bool
	NewList    = data.NewList
	NewTable   = data.NewTable
	KindInt    = data.KindInt
	KindFloat  = data.KindFloat
	KindString = data.KindString
	KindBool   = data.KindBool
	KindList   = data.KindList
	KindDict   = data.KindDict
)

// UDFKind classifies UDFs.
type UDFKind = ffi.UDFKind

// UDF kinds per the paper's design specifications (§4.2).
const (
	Scalar    = ffi.Scalar
	Aggregate = ffi.Aggregate
	TableUDF  = ffi.Table
	Expand    = ffi.Expand
)

// UDFSpec registers a UDF with explicit metadata (when decorators and
// annotations are not enough).
type UDFSpec = core.UDFSpec

// Options are the QFusor technique switches (ablations flip these).
type Options = core.Options

// Report carries per-query optimizer measurements.
type Report = core.Report

// Analysis is the per-query EXPLAIN ANALYZE handle returned by
// QueryAnalyze: the executed result plus the annotated span tree,
// per-UDF wrapper-vs-body time, and the engine-wide metrics delta.
type Analysis = core.Analysis

// UDFUsage is one UDF's contribution to an analyzed query.
type UDFUsage = core.UDFUsage

// Span is one timed region of a query's lifecycle (Analysis.Root is the
// tree of them).
type Span = obs.Span

// SpanSnapshot is an immutable copy of a span tree, as stored in
// flight-recorder QueryRecords.
type SpanSnapshot = obs.SpanSnapshot

// MetricsSnapshot is a point-in-time copy (or diff) of the engine-wide
// metrics registry.
type MetricsSnapshot = obs.Snapshot

// Metrics returns a snapshot of the process-wide metrics registry:
// counters, gauges and half-decade latency histograms from every layer
// (optimizer, executors, FFI boundary, UDF runtime).
func Metrics() MetricsSnapshot { return obs.Default.Snapshot() }

// Option configures Open.
type Option func(*engines.Config)

// WithJIT toggles the UDF runtime's tracing JIT (default on).
func WithJIT(on bool) Option {
	return func(c *engines.Config) { c.JIT = on }
}

// WithParallelism sets the engine's worker count: 0 = auto (one worker
// per core), 1 = legacy serial execution.
func WithParallelism(n int) Option {
	return func(c *engines.Config) { c.Parallelism = n }
}

// WithUDFTimeout bounds each out-of-process UDF round trip (profiles
// with a process transport: PostgreSQL, PySpark). A call that exceeds
// the deadline fails with a timeout error; idempotent scalar batches
// are retried on a respawned worker, anything else degrades to the
// native plan.
func WithUDFTimeout(d time.Duration) Option {
	return func(c *engines.Config) { c.UDFCallTimeout = d }
}

// WithStepBudget caps the number of PyLite statements one query or DML
// statement may execute before it is interrupted — the runaway-UDF
// guard. 0 = unlimited.
func WithStepBudget(n int64) Option {
	return func(c *engines.Config) { c.UDFStepBudget = n }
}

// WithPlanCache toggles the plan-decision cache (default on): repeated
// queries skip plan probing, DFG construction, section discovery and
// the rewrite, going straight to execution. Entries are invalidated by
// catalog changes (DDL, DML, UDF re-registration) and by circuit-
// breaker activity on the wrappers they call.
func WithPlanCache(on bool) Option {
	return func(c *engines.Config) {
		if on {
			if c.PlanCacheSize < 0 {
				c.PlanCacheSize = 0
			}
		} else {
			c.PlanCacheSize = -1
		}
	}
}

// WithPlanCacheSize caps the plan-decision cache at n entries (n <= 0
// keeps the default capacity, 256).
func WithPlanCacheSize(n int) Option {
	return func(c *engines.Config) {
		if n > 0 {
			c.PlanCacheSize = n
		}
	}
}

// WithMorselSize overrides the executor's morsel row count: every
// partitionable input then splits at n rows, serial or not (n <= 0
// keeps the profile's default, 2048). Smaller morsels lower
// cancellation latency and scheduling granularity, larger ones amortize
// per-morsel overhead.
func WithMorselSize(n int) Option {
	return func(c *engines.Config) {
		if n > 0 {
			c.MorselSize = n
		}
	}
}

// WithTier pins the execution tier of fused sections: "vm" runs each
// UDF call whose body has a bytecode program on the vectorized VM and
// "closure" runs every call on its closure-compiled body, both with
// relational inlining off; "auto" (the default) inlines every UDF call
// whose body translates into engine expressions and otherwise runs like
// "vm". A call without a program always runs its compiled body. Open
// rejects any other value.
func WithTier(tier string) Option {
	return func(c *engines.Config) { c.Tier = core.Tier(tier) }
}

// PlanCacheStats summarizes the plan-decision cache: live size,
// capacity, and cumulative hit/miss/eviction/invalidation counters.
type PlanCacheStats = core.PlanCacheStats

// QueryError is the typed failure every resilient query path returns:
// Stage says where the ladder stopped ("plan", "fused", "native",
// "fallback" or "cancelled") and the cause chain is reachable with
// errors.Is / errors.As.
type QueryError = resilience.QueryError

// QueryRecord is one flight-recorder entry: what a finished query was,
// which path it took, how long it ran, and whether it degraded.
type QueryRecord = obs.QueryRecord

// LedgerSnapshot is one query's resource-accounting ledger: rows,
// morsels, FFI traffic, UDF interpreter steps, allocation deltas per
// phase, and per-operator / per-UDF breakdowns. Carried on
// QueryRecord.Resources and Analysis.Resources.
type LedgerSnapshot = obs.LedgerSnapshot

// RegressionEvent is one detected regression: a query whose latency,
// row count, allocations or FFI call count exceeded its rolling
// baseline by the configured thresholds.
type RegressionEvent = obs.RegressionEvent

// RegressionConfig tunes the baseline-aware regression detector.
type RegressionConfig = obs.RegressionConfig

// UDFProfile is a window of the UDF sampling profiler: per-source-line
// sample counts, hottest first (see StartUDFProfiler).
type UDFProfile = pylite.ProfileSnapshot

// DB is an opened engine instance with QFusor attached.
type DB struct {
	in  *engines.Instance
	dbg *obshttp.Server
	srv *server.Server
}

// Open launches an engine with the given profile.
func Open(profile Profile, opts ...Option) (*DB, error) {
	cfg := engines.Config{Profile: profile, JIT: true}
	for _, o := range opts {
		o(&cfg)
	}
	if _, err := core.ParseTier(string(cfg.Tier)); err != nil {
		return nil, err
	}
	return &DB{in: engines.Launch(cfg)}, nil
}

// Close releases the engine's resources, draining and stopping the
// query server (if Serve started one) and the diagnostics server (if
// ServeDebug started one) first, so no handler goroutine outlives the
// handle.
func (db *DB) Close() {
	if db.srv != nil {
		db.srv.Close()
		db.srv = nil
	}
	if db.dbg != nil {
		db.dbg.Close()
		db.dbg = nil
	}
	db.in.Close()
}

// ServerConfig tunes DB.Serve: admission-control limits and the
// shutdown drain grace. The zero value serves with the defaults (8
// concurrent queries, per-tenant = global, queue 2x the concurrency,
// 1s queue wait, 5s drain grace).
type ServerConfig struct {
	// MaxConcurrent caps queries executing at once across all tenants.
	MaxConcurrent int
	// TenantConcurrent caps one tenant's concurrent queries (0 = the
	// global cap).
	TenantConcurrent int
	// QueueDepth bounds the admission wait queue; a query arriving with
	// the queue full is rejected immediately (503 queue_full).
	QueueDepth int
	// QueueTimeout bounds how long an admitted-but-waiting query queues
	// before rejection (503 queue_timeout).
	QueueTimeout time.Duration
	// ShedCostNanos sheds queries whose estimated cost (an EWMA of
	// observed wall time for that statement) exceeds this bound while
	// others wait — cheap queries keep flowing under overload (503
	// shed_cost). 0 disables cost shedding.
	ShedCostNanos float64
	// DrainGrace bounds how long Close waits for in-flight queries
	// before cancelling them.
	DrainGrace time.Duration
	// DefaultTimeout bounds queries from sessions with no timeout of
	// their own (0 = unbounded).
	DefaultTimeout time.Duration
	// SessionLimit caps concurrent sessions (default 256).
	SessionLimit int
}

// AdmissionError is the typed rejection the query server returns when
// a query is refused at the door: Reason is one of the Admission*
// reason constants, Code the HTTP status served (429 for throttled
// tenants, 503 for overload and drain).
type AdmissionError = resilience.AdmissionError

// Admission rejection reasons (AdmissionError.Reason).
const (
	AdmissionDraining        = resilience.ReasonDraining
	AdmissionQueueFull       = resilience.ReasonQueueFull
	AdmissionQueueTimeout    = resilience.ReasonQueueTimeout
	AdmissionShedCost        = resilience.ReasonShedCost
	AdmissionTenantThrottled = resilience.ReasonTenantThrottled
)

// Serve starts the multi-session HTTP/JSON query server on addr (":0"
// picks a free port) and returns the bound address. The server layers
// concurrent sessions over this DB's engine:
//
//	POST   /v1/session      open a session (tenant, timeout_ms, tier,
//	                        parallelism, morsel) -> {"session": id}
//	DELETE /v1/session/{id} close it
//	POST   /v1/prepare      store a named statement on a session
//	POST   /v1/query        run sql (or a prepared stmt); mode
//	                        fused|native|analyze
//	POST   /v1/exec         run DDL/DML
//	POST   /v1/define       execute UDF module source
//	GET    /debug/sessions  live sessions + admission-controller census
//
// plus the full diagnostics plane (/metrics, /debug/queries, ...).
// Every query passes the admission controller; rejections carry the
// AdmissionError reason in the JSON body. DB.Close (or closing the
// returned server via another Serve call being refused) drains
// gracefully.
func (db *DB) Serve(addr string, cfg ServerConfig) (string, error) {
	if db.srv != nil {
		return "", fmt.Errorf("qfusor: query server already running on %s", db.srv.Addr())
	}
	db.srv = server.New(db.in, server.Config{
		Admission: resilience.AdmissionConfig{
			MaxConcurrent:    cfg.MaxConcurrent,
			TenantConcurrent: cfg.TenantConcurrent,
			QueueDepth:       cfg.QueueDepth,
			QueueTimeout:     cfg.QueueTimeout,
			ShedCostNanos:    cfg.ShedCostNanos,
		},
		DrainGrace:     cfg.DrainGrace,
		DefaultTimeout: cfg.DefaultTimeout,
		SessionLimit:   cfg.SessionLimit,
	})
	a, err := db.srv.Start(addr)
	if err != nil {
		db.srv = nil
	}
	return a, err
}

// ServeDebug starts the embedded diagnostics HTTP server on addr (e.g.
// "localhost:6060"; ":0" picks a free port) and returns the bound
// address. It is read-only and opt-in, serving:
//
//	/metrics          Prometheus text exposition of the engine registry
//	/debug/queries    recent queries from the flight recorder (JSON;
//	                  ?n=K limits, ?slow=1 filters to the slow-query log)
//	/debug/trace/<id> Chrome trace_event JSON for one recorded query
//	                  (load in chrome://tracing or Perfetto)
//	/debug/profile    UDF sampling-profiler hot lines (text)
//	/debug/plancache  plan-decision cache snapshot (JSON)
//	/debug/resources  per-query resource ledgers for recent queries (JSON)
//	/debug/regressions regression baselines + recent regression events (JSON)
//
// While the server runs, every query records a span trace into the
// flight recorder (trace-all); Close (or DB.Close) turns that off.
func (db *DB) ServeDebug(addr string) (string, error) {
	if db.dbg == nil {
		db.dbg = &obshttp.Server{
			ProfileText: func() string {
				p := pylite.ActiveProfiler()
				if p == nil {
					return ""
				}
				return p.ReportText()
			},
			PlanCache: func() any { return db.in.QF.PlanCache.Snapshot() },
		}
	}
	return db.dbg.Start(addr)
}

// RecentQueries returns the last n completed queries (most recent
// first) from the process flight recorder.
func (db *DB) RecentQueries(n int) []*QueryRecord { return obs.DefaultFlight.Recent(n) }

// SlowQueries returns the last n queries that exceeded the slow-query
// threshold (most recent first).
func (db *DB) SlowQueries(n int) []*QueryRecord { return obs.DefaultFlight.Slow(n) }

// SetSlowQueryThreshold sets the latency above which a query lands in
// the slow-query log (default 100ms).
func (db *DB) SetSlowQueryThreshold(d time.Duration) { obs.DefaultFlight.SetSlowThreshold(d) }

// SetResourceAccounting toggles per-query resource ledgers process-wide
// (default on). With accounting off, queries skip ledger creation
// entirely: QueryRecord.Resources and Analysis.Resources come back nil
// and the alloc/FFI regression dimensions see no data.
func SetResourceAccounting(on bool) { obs.SetAccounting(on) }

// SetQueryLogWriter directs the structured query log at w: one JSON
// line per completed query (timestamp, correlation id, SQL, path,
// latency, resource ledger, regression flags). nil turns the log off.
// The writer is shared process-wide and writes are serialized.
func SetQueryLogWriter(w io.Writer) { obs.DefaultQueryLog.SetWriter(w) }

// RecentRegressions returns the last k regression events (most recent
// first) from the process-wide detector.
func RecentRegressions(k int) []RegressionEvent { return obs.DefaultRegressions.Recent(k) }

// SetRegressionConfig replaces the process-wide detector's thresholds
// (zero fields fall back to the defaults: 5 samples, 3 sigma, 50%).
func SetRegressionConfig(cfg RegressionConfig) { obs.DefaultRegressions.SetConfig(cfg) }

// StartUDFProfiler turns on the PyLite sampling profiler: every
// sampleInterval-th executed UDF statement attributes one sample to its
// source line (sampleInterval <= 0 uses the default, 64; it is rounded
// up to a power of two). The profiler is process-wide; when it is off,
// UDF execution pays a single atomic load per statement. Hot-line
// windows appear on QueryAnalyze results and /debug/profile.
func (db *DB) StartUDFProfiler(sampleInterval int) { pylite.StartProfiler(sampleInterval) }

// StopUDFProfiler turns the sampling profiler off and returns its final
// snapshot (nil-safe: returns an empty profile when none was running).
func (db *DB) StopUDFProfiler() UDFProfile {
	p := pylite.ActiveProfiler()
	snap := p.Snapshot()
	if p != nil {
		p.Stop()
	}
	return snap
}

// UDFProfile returns the running profiler's cumulative snapshot (empty
// when no profiler is active).
func (db *DB) UDFProfile() UDFProfile { return pylite.ActiveProfiler().Snapshot() }

// Define executes UDF module source (PyLite — the Python subset of the
// UDF design specifications) and registers every decorated definition.
func (db *DB) Define(src string) error { return db.in.Define(src) }

// Register adds a UDF with explicit metadata.
func (db *DB) Register(spec UDFSpec) error { return db.in.Register(spec) }

// PutTable installs a prebuilt table.
func (db *DB) PutTable(t *Table) { db.in.Put(t) }

// Exec runs a DDL/DML statement (CREATE TABLE / INSERT / UPDATE /
// DELETE). UPDATE and DELETE predicates may call UDFs.
func (db *DB) Exec(sql string) error { return db.in.Eng.Exec(sql) }

// Query runs a SELECT through the QFusor pipeline (fusion + JIT) with
// graceful degradation: a fused-path failure transparently re-executes
// the query on the engine's native plan.
func (db *DB) Query(sql string) (*Table, error) { return db.in.QueryFused(sql) }

// QueryContext is Query under a context: cancelling ctx (or hitting
// its deadline) stops the query inside the executors' morsel loops and
// the UDF runtime's statement checks, returning a *QueryError with
// Stage "cancelled" whose chain carries ctx's cause.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Table, error) {
	return db.in.QueryFusedCtx(ctx, sql)
}

// QueryNative runs a SELECT with engine-native UDF execution (no
// fusion) for comparison.
func (db *DB) QueryNative(sql string) (*Table, error) { return db.in.Query(sql) }

// QueryNativeContext is QueryNative under a context.
func (db *DB) QueryNativeContext(ctx context.Context, sql string) (*Table, error) {
	return db.in.QueryCtx(ctx, sql)
}

// Explain returns the engine's plan for sql after QFusor's rewrite,
// plus each fused wrapper's trace rendered as Python-like pseudo-source.
func (db *DB) Explain(sql string) (string, error) {
	q, rep, err := db.in.QF.Process(db.in.Eng, sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(q.Explain())
	for i, src := range rep.Sources {
		fmt.Fprintf(&b, "\n-- fused wrapper %d --\n%s", i+1, src)
	}
	return b.String(), nil
}

// RewriteSQL returns the fused query as standard SQL calling the
// generated wrapper UDFs as table functions (the paper's rewrite
// path 1). executable reports whether this engine can re-run it.
func (db *DB) RewriteSQL(sql string) (out string, executable bool, err error) {
	return db.in.QF.RewriteSQL(db.in.Eng, sql)
}

// ExecFused runs a DML statement with QFusor's UDF-pipeline fusion
// applied to its expressions (§4.2.5).
func (db *DB) ExecFused(sql string) error {
	return db.in.QF.ExecDML(db.in.Eng, sql)
}

// ExplainNative returns the engine plan without QFusor's rewrite.
func (db *DB) ExplainNative(sql string) (string, error) {
	q, err := db.in.Eng.Plan(sql)
	if err != nil {
		return "", err
	}
	return q.Explain(), nil
}

// QueryAnalyze runs a SELECT through the full QFusor pipeline with
// tracing enabled — EXPLAIN ANALYZE. The returned Analysis carries the
// result table, the span tree (optimizer phases plus one span per
// executed plan operator with row counts), per-UDF wrapper-vs-body
// time, and the engine-wide metrics delta for the query.
func (db *DB) QueryAnalyze(sql string) (*Analysis, error) {
	return db.in.QueryAnalyze(sql)
}

// QueryAnalyzeContext is QueryAnalyze under a context; a fused-path
// failure degrades to the native plan under a phase:fallback span.
func (db *DB) QueryAnalyzeContext(ctx context.Context, sql string) (*Analysis, error) {
	return db.in.QueryAnalyzeCtx(ctx, sql)
}

// LastReport returns measurements of the most recent Query's fusion
// pipeline (discovery + codegen times, fused section count).
//
// Deprecated: "most recent" is ambiguous when queries run concurrently;
// prefer the per-query Analysis from QueryAnalyze.
func (db *DB) LastReport() Report { return db.in.QF.LastReport() }

// SetOptions adjusts the QFusor technique switches.
func (db *DB) SetOptions(o Options) { db.in.QF.Opts = o }

// PlanCacheStats returns the plan-decision cache's counters (zero when
// the cache is disabled).
func (db *DB) PlanCacheStats() PlanCacheStats { return db.in.QF.PlanCache.Stats() }

// PurgePlanCache empties the plan-decision cache (counted as
// invalidations). Useful before cold-path measurements.
func (db *DB) PurgePlanCache() {
	if db.in.QF.PlanCache != nil {
		db.in.QF.PlanCache.Purge()
	}
}

// DefaultOptions returns the full pipeline's switches.
func DefaultOptions() Options { return core.DefaultOptions() }

// Format renders a result table for display (up to limit rows).
func Format(t *Table, limit int) string {
	var b strings.Builder
	for i, f := range t.Schema {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(f.Name)
	}
	b.WriteByte('\n')
	n := t.NumRows()
	if limit > 0 && n > limit {
		n = limit
	}
	for r := 0; r < n; r++ {
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c.Get(r).String())
		}
		b.WriteByte('\n')
	}
	if t.NumRows() > n {
		fmt.Fprintf(&b, "... (%d rows total)\n", t.NumRows())
	}
	return b.String()
}

// ProfileColdUDFs probes statistics for registered UDFs that have none
// yet, sampling rows from the named table (§5.2.2's cold-start
// exploration). Returns how many UDFs were probed.
func (db *DB) ProfileColdUDFs(table string) int {
	return core.NewProfiler().ProfileColdUDFs(db.in.Eng, table)
}

// Tables lists the catalog's table names.
func (db *DB) Tables() []string { return db.in.Eng.Catalog.Tables() }

// UDFList describes the registered UDFs (name, kind, signature).
func (db *DB) UDFList() []string {
	var out []string
	for _, u := range db.in.Eng.Catalog.UDFs() {
		sig := make([]string, len(u.InKinds))
		for i, k := range u.InKinds {
			sig[i] = k.String()
		}
		out = append(out, fmt.Sprintf("%s(%s) -> %s  [%s]",
			u.Name, strings.Join(sig, ", "), u.OutKind(), u.Kind))
	}
	sort.Strings(out)
	return out
}

// DefineWorkload installs one of the paper's UDF libraries by name:
// "udfbench", "zillow", "weld" or "udo".
func (db *DB) DefineWorkload(name string) error {
	switch name {
	case "udfbench":
		return workload.InstallUDFBench(db.in)
	case "zillow":
		return workload.InstallZillow(db.in)
	case "weld":
		return workload.InstallWeld(db.in)
	case "udo":
		return workload.InstallUDO(db.in)
	}
	return fmt.Errorf("qfusor: unknown workload %q", name)
}

// Workload re-exports (used by the examples and benchmarks).
var (
	// GenUDFBench builds the publication-data workload.
	GenUDFBench = workload.GenUDFBench
	// GenZillow builds the listings workload.
	GenZillow = workload.GenZillow
	// InstallUDFBench registers the UDFBench UDF library on a DB.
	InstallUDFBench = func(db *DB) error { return workload.InstallUDFBench(db.in) }
	// InstallZillow registers the Zillow UDF library on a DB.
	InstallZillow = func(db *DB) error { return workload.InstallZillow(db.in) }
)

// Size re-exports workload scales.
type Size = workload.Size

// Workload sizes.
const (
	Tiny   = workload.Tiny
	Small  = workload.Small
	Medium = workload.Medium
	Large  = workload.Large
)
