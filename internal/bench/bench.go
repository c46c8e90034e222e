// Package bench is the experiment harness: one runner per table/figure
// of the paper's evaluation (§6), each printing the same rows/series
// the paper reports, measured on this substrate.
package bench

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
	"qfusor/internal/workload"
)

// Row is one measured point of an experiment.
type Row struct {
	Label   string
	Metrics map[string]float64 // milliseconds unless suffixed otherwise
	Order   []string           // metric print order
	Note    string
}

// Result is one experiment's output.
type Result struct {
	ID    string // experiment id (DESIGN.md table)
	Title string // paper artifact, e.g. "Fig. 4 (top)"
	Rows  []Row
	Notes []string
}

// Runner executes experiments at a given scale.
type Runner struct {
	Size workload.Size
	Out  io.Writer
	// Quick trims sweeps (fewer selectivity points, fewer repetitions)
	// for CI runs.
	Quick bool
	// Parallelism is the executor worker count applied to every launched
	// instance whose experiment does not pin its own (0 = auto, 1 =
	// serial). Parallelism sweeps ignore it.
	Parallelism int
	// QueryTimeout bounds every measured query (0 = none): a query that
	// exceeds it fails its experiment with a cancelled QueryError
	// instead of wedging the whole run.
	QueryTimeout time.Duration
	// PlanCacheOff disables the plan-decision cache on every launched
	// instance whose experiment does not pin its own setting (-plancache=
	// false; the plancache experiment itself manages both arms).
	PlanCacheOff bool
	// MorselSize overrides the executor morsel row count on launched
	// instances that don't pin their own (0 = engine default).
	MorselSize int
	// Tier pins the fused-section execution tier on launched instances
	// that don't pin their own ("vm" | "closure" | ""/auto).
	Tier core.Tier
}

// launch builds an instance, applying the runner's default parallelism
// when the experiment left the config at 0 (auto).
func (r *Runner) launch(cfg engines.Config) *engines.Instance {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = r.Parallelism
	}
	if r.PlanCacheOff && cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = -1
	}
	if cfg.MorselSize == 0 {
		cfg.MorselSize = r.MorselSize
	}
	if cfg.Tier == "" {
		cfg.Tier = r.Tier
	}
	return engines.Launch(cfg)
}

// NewRunner builds a runner printing to w.
func NewRunner(size workload.Size, w io.Writer) *Runner {
	return &Runner{Size: size, Out: w}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, args...)
	}
}

// Print renders a result as an aligned table.
func (r *Runner) Print(res *Result) {
	if r.Out == nil {
		return
	}
	fmt.Fprintf(r.Out, "\n== %s — %s (size=%s)\n", res.ID, res.Title, r.Size)
	// Collect metric order.
	var metrics []string
	seen := map[string]bool{}
	for _, row := range res.Rows {
		order := row.Order
		if order == nil {
			for m := range row.Metrics {
				order = append(order, m)
			}
			sort.Strings(order)
		}
		for _, m := range order {
			if !seen[m] {
				seen[m] = true
				metrics = append(metrics, m)
			}
		}
	}
	w := 24
	for _, row := range res.Rows {
		if len(row.Label) > w {
			w = len(row.Label)
		}
	}
	fmt.Fprintf(r.Out, "%-*s", w+2, "series")
	for _, m := range metrics {
		fmt.Fprintf(r.Out, "%14s", m)
	}
	fmt.Fprintln(r.Out)
	for _, row := range res.Rows {
		fmt.Fprintf(r.Out, "%-*s", w+2, row.Label)
		for _, m := range metrics {
			if v, ok := row.Metrics[m]; ok {
				fmt.Fprintf(r.Out, "%14.2f", v)
			} else {
				fmt.Fprintf(r.Out, "%14s", "-")
			}
		}
		if row.Note != "" {
			fmt.Fprintf(r.Out, "  %s", row.Note)
		}
		fmt.Fprintln(r.Out)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(r.Out, "   note: %s\n", n)
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeIt measures fn once (experiments use cold single runs like the
// paper's cold-cache methodology; benchmarks re-run via testing.B).
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// sysConfig describes one system lineup entry.
type sysConfig struct {
	name  string
	build func() (*engines.Instance, runMode, error)
}

// runMode selects how a query is issued on an instance.
type runMode int

const (
	runNative runMode = iota // engine-native UDF execution
	runFused                 // through the QFusor pipeline
)

// launchWorkload builds an instance with the named dataset installed.
func (r *Runner) launchWorkload(cfg engines.Config, dataset string) (*engines.Instance, error) {
	in := r.launch(cfg)
	if err := r.install(in, dataset); err != nil {
		in.Close()
		return nil, err
	}
	return in, nil
}

func (r *Runner) install(in *engines.Instance, dataset string) error {
	switch dataset {
	case "udfbench", "udfbench-pubs", "udfbench-artifacts":
		if err := workload.InstallUDFBench(in); err != nil {
			return err
		}
		ub := workload.GenUDFBench(r.Size)
		in.Put(ub.Pubs)
		in.Put(ub.Artifacts)
	case "zillow":
		if err := workload.InstallZillow(in); err != nil {
			return err
		}
		in.Put(workload.GenZillow(r.Size))
	case "zillow-tiny":
		if err := workload.InstallZillow(in); err != nil {
			return err
		}
		in.Put(workload.GenZillow(workload.Tiny))
	case "weld":
		if err := workload.InstallWeld(in); err != nil {
			return err
		}
		pop, dirty := workload.GenWeld(r.Size)
		in.Put(pop)
		in.Put(dirty)
	case "udo":
		if err := workload.InstallUDO(in); err != nil {
			return err
		}
		arrays, docs := workload.GenUDO(r.Size)
		in.Put(arrays)
		in.Put(docs)
	default:
		return fmt.Errorf("bench: unknown dataset %q", dataset)
	}
	return nil
}

// runSQLTimeout measures one query on an instance in the given mode,
// under an optional per-query deadline.
func runSQLTimeout(in *engines.Instance, sql string, mode runMode, timeout time.Duration) (time.Duration, int, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	var (
		res *data.Table
		err error
	)
	if mode == runFused {
		res, err = in.QueryFusedCtx(ctx, sql)
	} else {
		res, err = in.QueryCtx(ctx, sql)
	}
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), res.NumRows(), nil
}

// engineLineup is the system list of Fig. 4: name → instance builder.
// Each call launches a fresh instance (cold caches).
func (r *Runner) engineLineup(dataset string) []sysConfig {
	mk := func(name string, cfg engines.Config, mode runMode, opts *core.Options, nativeUDFs bool) sysConfig {
		return sysConfig{name: name, build: func() (*engines.Instance, runMode, error) {
			in := r.launch(cfg)
			if err := r.install(in, dataset); err != nil {
				in.Close()
				return nil, mode, err
			}
			if nativeUDFs {
				workload.InstallNativeUDFs(in)
			}
			if opts != nil {
				in.QF.Opts = *opts
			}
			return in, mode, nil
		}}
	}
	yesql := core.Options{Fusion: true, ScalarOnly: true, Cache: true}
	return []sysConfig{
		mk("qfusor", engines.Config{Profile: engines.Monet, JIT: true}, runFused, nil, false),
		mk("yesql", engines.Config{Profile: engines.Monet, JIT: true}, runFused, &yesql, false),
		mk("mdb/c-udf", engines.Config{Profile: engines.Monet, JIT: false}, runNative, nil, true),
		mk("mdb/numpy", engines.Config{Profile: engines.Monet, JIT: false}, runNative, nil, false),
		mk("sqlite", engines.Config{Profile: engines.SQLite, JIT: false}, runNative, nil, false),
		mk("postgresql", engines.Config{Profile: engines.Postgres, JIT: false}, runNative, nil, false),
		mk("duckdb", engines.Config{Profile: engines.Duck, JIT: false}, runNative, nil, false),
		mk("pyspark", engines.Config{Profile: engines.Spark, JIT: false, Parallelism: 4}, runNative, nil, false),
		mk("dbx", engines.Config{Profile: engines.DBX, JIT: false, Parallelism: 4}, runNative, nil, true),
	}
}

// speedupNote renders "× over Y".
func speedupNote(base, v float64) string {
	if v <= 0 {
		return ""
	}
	return fmt.Sprintf("%.1fx", base/v)
}

var _ = strings.TrimSpace

// runSQL (method form) applies the runner's QueryTimeout to a measured
// query.
func (r *Runner) runSQL(in *engines.Instance, sql string, mode runMode) (time.Duration, int, error) {
	return runSQLTimeout(in, sql, mode, r.QueryTimeout)
}
