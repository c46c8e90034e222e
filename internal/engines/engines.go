// Package engines configures the SQL substrate into the six engine
// profiles the paper integrates QFusor with (§6.1): each profile is an
// execution model × UDF transport × parallelism combination that
// reproduces the corresponding system's cost structure.
package engines

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// Profile identifies an engine configuration.
type Profile string

const (
	// Monet: vectorized operator-at-a-time columnar execution with
	// in-process vectorized UDFs (MonetDB).
	Monet Profile = "monetdb"
	// Postgres: the columnar executor in ModeRow (a UDF in a projection,
	// filter or expand is called once per row) with out-of-process UDFs
	// (PostgreSQL pl/python): every batch is serialized to a worker.
	Postgres Profile = "postgresql"
	// SQLite: the columnar executor in ModeRow with in-process per-tuple
	// UDF calls.
	SQLite Profile = "sqlite"
	// Duck: the columnar executor at morsel size 2 048 (DuckDB's vector
	// size), with in-process vectorized UDFs. It runs operator-at-a-time
	// like Monet and is not pipelined: every operator still materializes
	// its whole output.
	Duck Profile = "duckdb"
	// Spark: the columnar executor at morsel size 2 048, with per-batch
	// UDF serialization to one transport worker per executor worker
	// (PySpark).
	Spark Profile = "pyspark"
	// DBX: the commercial analytics database. It has Monet's executor and
	// transport; its "no UDF JIT, 4 workers" come only from the Config
	// the paper experiments launch it with (internal/bench).
	DBX Profile = "dbx"
)

// AllProfiles lists every engine profile.
func AllProfiles() []Profile {
	return []Profile{Monet, Postgres, SQLite, Duck, Spark, DBX}
}

// Config selects the profile plus the knobs experiments vary.
type Config struct {
	Profile     Profile
	Parallelism int
	// JIT enables the tracing JIT in the UDF runtime (hot threshold 8).
	// Off reproduces native CPython execution.
	JIT bool
	// BatchRows overrides the out-of-process transport's batch size.
	BatchRows int
	// UDFCallTimeout bounds each out-of-process UDF round trip (profiles
	// with a process transport only). 0 = no per-call deadline.
	UDFCallTimeout time.Duration
	// UDFStepBudget caps the PyLite statements a query or DML statement may
	// execute before it is interrupted (runaway-UDF guard). 0 = no cap.
	UDFStepBudget int64
	// PlanCacheSize sizes the plan-decision cache: 0 keeps the default
	// capacity (core.DefaultPlanCacheCap), > 0 sets an explicit entry
	// cap, < 0 disables plan-decision caching entirely.
	PlanCacheSize int
	// MorselSize overrides the executor's morsel row count: every
	// partitionable input splits at it, serial or not (0 keeps the
	// profile's default: 2 048 for Duck and Spark, for the rest a
	// 2 048-row split only when the pool runs in parallel).
	MorselSize int
	// Tier pins the execution tier (core.Options.Tier); "" keeps the
	// default, core.TierAuto.
	Tier core.Tier
}

// Instance is a launched engine: the SQL engine, its UDF registry and a
// QFusor plugged into it.
type Instance struct {
	Name string
	Eng  *sqlengine.Engine
	Reg  *core.Registry
	QF   *core.QFusor

	cfg  Config
	proc *ffi.ProcessInvoker
}

// vectorSize is the morsel size of the vectorized profiles (Duck and
// Spark) when the Config sets none.
const vectorSize = 2048

// workersFor resolves a Config.Parallelism value to a concrete worker
// count (0 = auto, mirroring sqlengine.Engine.Workers).
func workersFor(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Launch builds an engine instance for the profile.
func Launch(cfg Config) *Instance {
	hot := 0
	if cfg.JIT {
		hot = 8
	}
	reg := core.NewRegistry(hot)
	var (
		mode sqlengine.ExecMode
		inv  ffi.Invoker
		proc *ffi.ProcessInvoker
	)
	switch cfg.Profile {
	case Monet:
		mode, inv = sqlengine.ModeColumnar, ffi.VectorInvoker{}
	case Duck:
		mode, inv = sqlengine.ModeColumnar, ffi.VectorInvoker{}
	case SQLite:
		mode, inv = sqlengine.ModeRow, ffi.TupleInvoker{}
	case Postgres:
		batch := cfg.BatchRows
		if batch <= 0 {
			batch = 256
		}
		proc = ffi.NewProcessInvoker(batch)
		mode, inv = sqlengine.ModeRow, proc
	case Spark:
		batch := cfg.BatchRows
		if batch <= 0 {
			batch = 4096
		}
		// One transport worker per executor worker so parallel morsels
		// never queue behind a single serialization loop.
		proc = ffi.NewProcessInvokerN(batch, workersFor(cfg.Parallelism))
		mode, inv = sqlengine.ModeColumnar, proc
	case DBX:
		mode, inv = sqlengine.ModeColumnar, ffi.VectorInvoker{}
	default:
		mode, inv = sqlengine.ModeColumnar, ffi.VectorInvoker{}
	}
	if proc != nil && cfg.UDFCallTimeout > 0 {
		proc.CallTimeout = cfg.UDFCallTimeout
	}
	eng := sqlengine.New(string(cfg.Profile), mode, inv, cfg.UDFStepBudget)
	// 0 keeps the engine's auto default (every core); 1 forces the
	// legacy serial executor for A/B baselines.
	eng.Parallelism = cfg.Parallelism
	eng.MorselSize = cfg.MorselSize
	if eng.MorselSize == 0 && (cfg.Profile == Duck || cfg.Profile == Spark) {
		eng.MorselSize = vectorSize
	}
	inst := &Instance{Name: string(cfg.Profile), Eng: eng, Reg: reg,
		QF: core.New(reg), cfg: cfg, proc: proc}
	switch {
	case cfg.PlanCacheSize < 0:
		inst.QF.Opts.PlanCache = false
	case cfg.PlanCacheSize > 0:
		inst.QF.PlanCache.SetCap(cfg.PlanCacheSize)
	}
	if cfg.Tier != "" {
		inst.QF.Opts.Tier = cfg.Tier
	}
	return inst
}

// SessionView derives a per-session instance sharing this instance's
// catalog, UDF runtime, process transport, plan cache, wrapper cache
// and breaker, with session-level tier and parallelism applied. tier ""
// and parallelism/morsel <= 0 keep the base settings; an all-default
// view returns the receiver itself (no allocation). Views are safe to
// use concurrently with the base instance and with each other: the
// plan cache partitions entries by options fingerprint and worker
// count, and generated wrapper names come from the shared sequence.
func (in *Instance) SessionView(tier core.Tier, parallelism, morsel int) *Instance {
	if tier == "" && parallelism <= 0 && morsel <= 0 {
		return in
	}
	v := *in
	v.Eng = in.Eng.View(parallelism, morsel)
	if tier != "" && tier != in.QF.Opts.Tier {
		opts := in.QF.Opts
		opts.Tier = tier
		v.QF = in.QF.Variant(opts)
	}
	return &v
}

// Define executes UDF module source and attaches the registrations.
func (in *Instance) Define(src string) error {
	if err := in.Reg.Define(src); err != nil {
		return err
	}
	in.Reg.Attach(in.Eng)
	return nil
}

// Register adds a UDF spec and attaches it.
func (in *Instance) Register(spec core.UDFSpec) error {
	if _, err := in.Reg.Register(spec); err != nil {
		return err
	}
	in.Reg.Attach(in.Eng)
	return nil
}

// Put loads a table into the engine catalog.
func (in *Instance) Put(t *data.Table) { in.Eng.Catalog.PutTable(t) }

// Query runs sql natively (no fusion).
func (in *Instance) Query(sql string) (*data.Table, error) {
	return in.Eng.Query(sql)
}

// QueryCtx runs sql natively under ctx: cancellation reaches the
// executors' morsel loops and the UDF runtime's statement checks.
func (in *Instance) QueryCtx(ctx context.Context, sql string) (*data.Table, error) {
	return in.Eng.QueryCtx(ctx, sql)
}

// QueryFused runs sql through the QFusor pipeline.
func (in *Instance) QueryFused(sql string) (*data.Table, error) {
	return in.QueryFusedCtx(context.Background(), sql)
}

// QueryFusedCtx runs sql through the resilient QFusor pipeline under
// ctx (fused → native fallback → typed error).
func (in *Instance) QueryFusedCtx(ctx context.Context, sql string) (*data.Table, error) {
	t, _, err := in.QueryFusedReportedCtx(ctx, sql)
	return t, err
}

// QueryFusedReportedCtx is QueryFusedCtx keeping the per-query
// optimizer report (the serving plane returns it to clients).
func (in *Instance) QueryFusedReportedCtx(ctx context.Context, sql string) (*data.Table, *core.Report, error) {
	return in.QF.QueryCtx(ctx, in.Eng, sql)
}

// QueryAnalyze runs sql through the QFusor pipeline with tracing
// enabled and returns the per-query EXPLAIN ANALYZE handle.
func (in *Instance) QueryAnalyze(sql string) (*core.Analysis, error) {
	return in.QueryAnalyzeCtx(context.Background(), sql)
}

// QueryAnalyzeCtx is QueryAnalyze under a context.
func (in *Instance) QueryAnalyzeCtx(ctx context.Context, sql string) (*core.Analysis, error) {
	return in.QF.QueryAnalyzeCtx(ctx, in.Eng, sql)
}

// Close releases transport resources.
func (in *Instance) Close() {
	if in.proc != nil {
		in.proc.Close()
	}
}

// SaveTableFile encodes a table to a file (the disk storage mode).
func SaveTableFile(dir string, t *data.Table) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.Name+".qft")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := data.EncodeTable(f, t); err != nil {
		return "", err
	}
	return path, nil
}

// LoadTableFile decodes a table from a file (cold-cache reads pay this
// full decode).
func LoadTableFile(path string) (*data.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := data.DecodeTable(f)
	if err != nil {
		return nil, fmt.Errorf("engines: decode %s: %w", path, err)
	}
	return t, nil
}
