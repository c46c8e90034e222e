package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// Analysis is a per-query EXPLAIN ANALYZE handle: the executed result
// plus the full query-lifecycle span tree (optimizer phases, one span
// per plan operator), per-UDF time split into wrapper vs body, and the
// engine-wide metrics delta attributable to this query. Unlike the
// legacy LastReport field it is returned per query, so concurrent
// queries cannot clobber each other's measurements.
type Analysis struct {
	// SQL is the analyzed query text.
	SQL string
	// Result is the executed query's output table.
	Result *data.Table
	// Report carries the optimizer measurements (Fig. 4 bottom).
	Report Report
	// Root is the span tree: phase:plan_probe, phase:dfg_build,
	// phase:discover, phase:codegen, phase:rewrite and phase:execute
	// (with op:* operator spans) hang off it.
	Root *obs.Span
	// Plan is the rewritten plan's EXPLAIN text.
	Plan string
	// UDFs summarizes per-UDF work done during this query, most
	// expensive first.
	UDFs []UDFUsage
	// Metrics is the obs.Default delta over this query (counters and
	// histograms subtract; gauges read current).
	Metrics obs.Snapshot
	// HotLines is the PyLite sampling-profiler window for this query:
	// per-statement sample counts attributed to UDF source lines, hottest
	// first. Empty unless a profiler is active (StartUDFProfiler).
	HotLines *pylite.ProfileSnapshot
	// Resources is the query's resource-ledger snapshot (nil when
	// accounting is off; see obs.SetAccounting).
	Resources *obs.LedgerSnapshot
	// Admission is the serving plane's admission verdict (queue wait,
	// queue depth, tenant); nil for queries that never went through the
	// admission controller.
	Admission *obs.AdmissionInfo
}

// UDFUsage is one UDF's contribution to a query. Wrapper is time spent
// at the FFI boundary (boxing columns in, unboxing results out); Body
// is the remainder — time inside the UDF's own logic.
type UDFUsage struct {
	Name  string
	Fused bool
	// Tier is the execution tier a fused wrapper runs on (empty for
	// source UDFs).
	Tier    Tier
	Calls   int64
	RowsIn  int64
	RowsOut int64
	Wall    time.Duration
	Wrapper time.Duration
	Body    time.Duration
}

// QueryAnalyze runs the full QFusor pipeline with tracing enabled,
// executes the (possibly rewritten) query, and returns the annotated
// analysis — EXPLAIN ANALYZE for UDF queries.
func (qf *QFusor) QueryAnalyze(eng *sqlengine.Engine, sql string) (*Analysis, error) {
	return qf.QueryAnalyzeCtx(context.Background(), eng, sql)
}

// QueryAnalyzeCtx is QueryAnalyze under a context. It is QueryCtx with a
// forced tracer root — the same ladder, breaker, plan-cache eviction and
// fallback accounting, so a fused-path failure shows up in the span
// tree as the degraded rerun instead of failing the analysis — and
// decorates the outcome with what only an analysis reports.
func (qf *QFusor) QueryAnalyzeCtx(ctx context.Context, eng *sqlengine.Engine, sql string) (*Analysis, error) {
	root := obs.NewTracer().Start("query")
	m0 := obs.Default.Snapshot()
	var prof0 pylite.ProfileSnapshot
	if p := pylite.ActiveProfiler(); p != nil {
		prof0 = p.Snapshot()
	}
	r, rec, err := qf.queryRecorded(ctx, eng, sql, "analyze", root)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		SQL:       sql,
		Result:    r.table,
		Report:    *r.rep,
		Root:      root,
		Plan:      r.plan.Explain(),
		Metrics:   obs.Default.Snapshot().Diff(m0),
		Resources: rec.Resources,
		Admission: rec.Admission,
	}
	if p := pylite.ActiveProfiler(); p != nil {
		win := p.Snapshot().Diff(prof0)
		a.HotLines = &win
	}
	tierOf := map[string]Tier{}
	for i, w := range r.rep.Wrappers {
		if i < len(r.rep.Tiers) {
			tierOf[w] = r.rep.Tiers[i]
		}
	}
	// One row per UDF: a UDF the failed fused attempt and the native
	// rerun both called shows their sum.
	at := map[string]int{}
	for _, u := range r.udfs {
		i, seen := at[u.Name]
		if !seen {
			i = len(a.UDFs)
			at[u.Name] = i
			a.UDFs = append(a.UDFs, UDFUsage{Name: u.Name, Fused: u.Fused, Tier: tierOf[u.Name]})
		}
		row := &a.UDFs[i]
		row.Calls += u.Calls
		row.RowsIn += u.InRows
		row.RowsOut += u.OutRows
		row.Wall += time.Duration(u.WallNanos)
		row.Wrapper += time.Duration(u.WrapNanos)
		row.Body = row.Wall - row.Wrapper
	}
	sort.Slice(a.UDFs, func(i, j int) bool {
		if a.UDFs[i].Wall != a.UDFs[j].Wall {
			return a.UDFs[i].Wall > a.UDFs[j].Wall
		}
		return a.UDFs[i].Name < a.UDFs[j].Name
	})
	return a, nil
}

// Render formats the analysis for terminals: the annotated span tree,
// the per-UDF time table and the optimizer summary line.
func (a *Analysis) Render() string {
	var b strings.Builder
	b.WriteString(a.Root.Render())
	if a.Admission != nil {
		fmt.Fprintf(&b, "\nadmission: tenant=%s wait=%s queue_depth=%d\n",
			admissionTenantLabel(a.Admission.Tenant),
			fmtAnalyzeDur(a.Admission.Wait), a.Admission.QueueDepth)
	}
	if len(a.UDFs) > 0 {
		b.WriteString("\nUDF time (wrapper = FFI boxing/unboxing, body = UDF logic):\n")
		for _, u := range a.UDFs {
			tag := ""
			if u.Fused {
				tag = " [fused]"
				if u.Tier != "" {
					tag = " [fused tier=" + string(u.Tier) + "]"
				}
			}
			fmt.Fprintf(&b, "  %-22s calls=%d rows_in=%d rows_out=%d wall=%s wrapper=%s body=%s%s\n",
				u.Name, u.Calls, u.RowsIn, u.RowsOut,
				fmtAnalyzeDur(u.Wall), fmtAnalyzeDur(u.Wrapper), fmtAnalyzeDur(u.Body), tag)
		}
	}
	if len(a.Report.Inlined) > 0 {
		b.WriteString("\nInlined UDFs (relational inlining; inlined sites never cross the FFI):\n")
		for _, d := range a.Report.Inlined {
			switch {
			case d.Sites > 0:
				fmt.Fprintf(&b, "  %-22s tier=inlined sites=%d expr=%s\n", d.UDF, d.Sites, d.Expr)
			case d.Inlinable:
				fmt.Fprintf(&b, "  %-22s inlinable (kept on the fusion ladder) expr=%s\n", d.UDF, d.Expr)
			default:
				fmt.Fprintf(&b, "  %-22s opaque (%s)\n", d.UDF, d.Reason)
			}
		}
	}
	if len(a.Report.SectionCosts) > 0 {
		b.WriteString("\nCost-model drift (predicted vs measured per fused section):\n")
		for _, sc := range a.Report.SectionCosts {
			fmt.Fprintf(&b, "  section %s (wrapper %s): predicted %.0fns", sc.Key, sc.Wrapper, sc.Predicted)
			if sc.Actual > 0 {
				fmt.Fprintf(&b, ", actual %.0fns, error %.1f%%", sc.Actual, math.Abs(sc.Predicted/sc.Actual-1)*100)
			}
			b.WriteByte('\n')
		}
	}
	if a.Resources != nil && a.Resources.VMRows > 0 {
		fmt.Fprintf(&b, "\nVM tier: rows=%d bail_rows=%d\n",
			a.Resources.VMRows, a.Resources.VMBailRows)
	}
	if a.HotLines != nil && len(a.HotLines.Samples) > 0 {
		b.WriteString("\n")
		b.WriteString(a.HotLines.ReportText(10))
	}
	// wrapper_cache_hits counts wrapper-compile-cache reuse (the name
	// "cache_hits" was misleading once a plan-decision cache existed);
	// plancache reports this query's plan-decision cache outcome.
	fmt.Fprintf(&b, "\nsections=%d inlined=%d wrapper_cache_hits=%d plancache=%s fus_optim=%s code_gen=%s\n",
		a.Report.Sections, inlineSitesOf(&a.Report), a.Report.CacheHits, planCacheLabel(a.Report.PlanCache),
		fmtAnalyzeDur(a.Report.FusOptim), fmtAnalyzeDur(a.Report.CodeGen))
	return b.String()
}

// admissionTenantLabel stabilizes the Render label for sessions that
// never named a tenant.
func admissionTenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// planCacheLabel stabilizes the Render/flight label for queries that
// never entered the fusion front-end.
func planCacheLabel(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// fmtAnalyzeDur matches the span renderer's compact duration format.
func fmtAnalyzeDur(d time.Duration) string {
	switch {
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.Round(time.Millisecond).String()
	}
}
