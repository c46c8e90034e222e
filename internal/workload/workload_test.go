package workload_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
	"qfusor/internal/workload"
)

// setup launches a monet-profile instance with every workload installed
// at tiny scale.
func setup(t *testing.T) *engines.Instance {
	t.Helper()
	return setupProfile(t, engines.Monet)
}

// setupProfile launches an instance of profile p with every workload
// installed at tiny scale.
func setupProfile(t *testing.T, p engines.Profile) *engines.Instance {
	t.Helper()
	in := engines.Launch(engines.Config{Profile: p, JIT: true})
	t.Cleanup(in.Close)
	if err := workload.InstallUDFBench(in); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallZillow(in); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallWeld(in); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallUDO(in); err != nil {
		t.Fatal(err)
	}
	ub := workload.GenUDFBench(workload.Tiny)
	in.Put(ub.Pubs)
	in.Put(ub.Artifacts)
	in.Put(workload.GenZillow(workload.Tiny))
	pop, dirty := workload.GenWeld(workload.Tiny)
	in.Put(pop)
	in.Put(dirty)
	arrays, docs := workload.GenUDO(workload.Tiny)
	in.Put(arrays)
	in.Put(docs)
	return in
}

func keysOf(tbl *data.Table) map[string]int {
	out := map[string]int{}
	for i := 0; i < tbl.NumRows(); i++ {
		k := ""
		for _, c := range tbl.Cols {
			k += c.Get(i).Key() + "|"
		}
		out[k]++
	}
	return out
}

// TestAllQueriesFusedParity runs every evaluation query natively and
// through QFusor, asserting identical result multisets.
func TestAllQueriesFusedParity(t *testing.T) {
	in := setup(t)
	for id, sql := range workload.AllQueries() {
		id, sql := id, sql
		t.Run(id, func(t *testing.T) {
			want, err := in.Query(sql)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			got, err := in.QueryFused(sql)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			if want.NumRows() != got.NumRows() {
				t.Fatalf("rows: native=%d fused=%d (sections=%d)",
					want.NumRows(), got.NumRows(), in.QF.LastReport().Sections)
			}
			wk, gk := keysOf(want), keysOf(got)
			for k, n := range wk {
				if gk[k] != n {
					t.Fatalf("row %q: native×%d fused×%d\nsources: %v",
						k, n, gk[k], in.QF.LastReport().Sources)
				}
			}
			if want.NumRows() == 0 {
				t.Fatalf("%s returned no rows — dataset too sparse for a meaningful test", id)
			}
		})
	}
}

// TestInlineVerdictIgnoresStatistics: whether a call inlines depends on
// the UDF's body and the call's kinds only, never on a cost learned or
// declared for the UDF. A translatable UDF declared to cost 1 ns per row
// (cheaper than any engine expression) inlines at the default tier, and
// Q1–Q18's inline decisions are the same on a cold instance and after
// native runs have filled the statistics, on an in-process vector, an
// in-process per-row and an out-of-process transport.
func TestInlineVerdictIgnoresStatistics(t *testing.T) {
	ids := make([]string, 0, 18)
	for id := range workload.AllQueries() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	decisions := func(in *engines.Instance) map[string][]core.InlineDecision {
		in.QF.PlanCache.Purge()
		out := map[string][]core.InlineDecision{}
		for _, id := range ids {
			_, rep, err := in.QF.Process(in.Eng, workload.AllQueries()[id])
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = rep.Inlined
		}
		return out
	}
	for _, p := range []engines.Profile{engines.Monet, engines.SQLite, engines.Postgres} {
		t.Run(string(p), func(t *testing.T) {
			in := setupProfile(t, p)
			if err := in.Define(`
def clampc(x):
    if x is None:
        return 0.0
    if x < 0.0:
        return 0.0
    if x > 100.0:
        return 100.0
    return x
`); err != nil {
				t.Fatal(err)
			}
			if err := in.Register(core.UDFSpec{Name: "clampc", Kind: ffi.Scalar,
				In: []data.Kind{data.KindFloat}, Out: []data.Kind{data.KindFloat}, Cost: 1}); err != nil {
				t.Fatal(err)
			}
			_, rep, err := in.QF.Process(in.Eng, "SELECT clampc(CAST(population AS float)) AS c FROM population")
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Inlined) != 1 || rep.Inlined[0].Sites != 1 {
				t.Fatalf("clampc declared at 1 ns/row not inlined: %+v", rep.Inlined)
			}

			cold := decisions(in)
			for r := 0; r < 3; r++ {
				for _, id := range ids {
					if _, err := in.Query(workload.AllQueries()[id]); err != nil {
						t.Fatalf("%s native: %v", id, err)
					}
				}
			}
			warm := decisions(in)
			for _, id := range ids {
				if !slices.Equal(cold[id], warm[id]) {
					t.Errorf("%s: inline decisions changed after native runs:\ncold: %+v\nwarm: %+v", id, cold[id], warm[id])
				}
			}
		})
	}
}

// TestFusedWrappersStayOutOfCatalog: fused wrappers are plan products,
// not catalog or registry entries, so neither grows with the queries
// run. Ten passes of Q1–Q18 with the wrapper compile cache and the plan
// cache off (every pass generates every wrapper afresh), then three
// cycles of redefining every UDF and running a pass, leave both sizes as
// installed.
func TestFusedWrappersStayOutOfCatalog(t *testing.T) {
	in := setup(t)
	in.QF.Opts.Cache = false
	in.QF.Opts.PlanCache = false
	sizes := func() [2]int { return [2]int{len(in.Eng.Catalog.UDFs()), len(in.Reg.UDFs())} }
	want := sizes()
	pass := func() {
		t.Helper()
		sections := 0
		for id, sql := range workload.AllQueries() {
			_, rep, err := in.QueryFusedReportedCtx(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			sections += rep.Sections
		}
		if sections == 0 {
			t.Fatal("a pass of Q1–Q18 fused nothing")
		}
	}
	for i := 0; i < 10; i++ {
		pass()
	}
	if got := sizes(); got != want {
		t.Fatalf("after 10 passes: catalog %d and registry %d UDFs, installed %d and %d", got[0], got[1], want[0], want[1])
	}
	for i := 0; i < 3; i++ {
		for _, install := range []func(*engines.Instance) error{
			workload.InstallUDFBench, workload.InstallZillow, workload.InstallWeld, workload.InstallUDO} {
			if err := install(in); err != nil {
				t.Fatal(err)
			}
		}
		pass()
	}
	if got := sizes(); got != want {
		t.Fatalf("after 3 redefinitions: catalog %d and registry %d UDFs, installed %d and %d", got[0], got[1], want[0], want[1])
	}
}

// TestQ3ProducesCollaborations sanity-checks the running example's
// output shape.
func TestQ3ProducesCollaborations(t *testing.T) {
	in := setup(t)
	res, err := in.QueryFused(workload.Q3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("Q3 returned no project rows")
	}
	if len(res.Cols) != 6 {
		t.Fatalf("Q3 arity = %d, want 6", len(res.Cols))
	}
	if in.QF.LastReport().Sections == 0 {
		t.Fatal("Q3 fused no sections")
	}
}

// TestFusionSpeedsUpQ10 checks the headline direction: fused execution
// of the serialization-heavy query is faster than native interpreted.
func TestFusionSpeedsUpQ10(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	native := engines.Launch(engines.Config{Profile: engines.Monet, JIT: false})
	defer native.Close()
	fused := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	defer fused.Close()
	for _, in := range []*engines.Instance{native, fused} {
		if err := workload.InstallUDFBench(in); err != nil {
			t.Fatal(err)
		}
		in.Put(workload.GenUDFBench(workload.Small).Pubs)
	}
	// Warm both (first run compiles/loads).
	if _, err := native.Query(workload.Q10); err != nil {
		t.Fatal(err)
	}
	if _, err := fused.QueryFused(workload.Q10); err != nil {
		t.Fatal(err)
	}
	// Medians of alternated runs: a slow stretch of a shared host slows
	// both arms alike, and one outlier moves no median.
	const runs = 7
	var tn, tf []time.Duration
	for range runs {
		tn = append(tn, timeQuery(t, func() error { _, err := native.Query(workload.Q10); return err }))
		tf = append(tf, timeQuery(t, func() error { _, err := fused.QueryFused(workload.Q10); return err }))
	}
	slices.Sort(tn)
	slices.Sort(tf)
	if mn, mf := tn[runs/2], tf[runs/2]; mf >= mn {
		t.Fatalf("fused (median %v) not faster than native interpreted (median %v)", mf, mn)
	}
}

// timeQuery times one run of fn.
func timeQuery(t *testing.T, fn func() error) time.Duration {
	t.Helper()
	start := time.Now()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestSumOverflowErrorsInBothArms: an int SUM whose total leaves int64
// raises data.ErrIntOverflow natively and in the fused trace alike.
func TestSumOverflowErrorsInBothArms(t *testing.T) {
	in := setup(t)
	const sql = "SELECT SUM(length(lower(title)) * 1000000000000000) AS s FROM artifacts"
	if res, err := in.Query(sql); !errors.Is(err, data.ErrIntOverflow) {
		t.Fatalf("native: %v (%v), want an integer overflow", err, res)
	}
	// The fused attempt and the native rerun both fail: the error joins
	// the two causes, and each must be the overflow.
	res, rep, err := in.QueryFusedReportedCtx(context.Background(), sql)
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.Stage != "fallback" || rep.Sections == 0 {
		t.Fatalf("fused: %v (%v, %d sections), want the fused plan and its native rerun to fail", err, res, rep.Sections)
	}
	for _, cause := range qe.Err.(interface{ Unwrap() []error }).Unwrap() {
		if !errors.Is(cause, data.ErrIntOverflow) {
			t.Errorf("fused: cause %v, want an integer overflow", cause)
		}
	}
}

// TestPath1AggregatesResubmit: rewrite path 1 renders a fused aggregate
// as a GROUP BY over its wrapper called by name, and the SQL re-submits
// to the same answer as native on a parallel engine — for the aggregating
// paper queries and a fused DISTINCT. Q3 joins, and a join renders
// display-only SQL, so its aggregate is only checked to render.
func TestPath1AggregatesResubmit(t *testing.T) {
	in := setup(t)
	in.Eng.Parallelism, in.Eng.MorselSize = 4, 64 // many morsels at tiny scale
	for _, c := range []struct{ id, sql string }{
		{"Q2", workload.Q2}, {"Q3", workload.Q3}, {"Q5", workload.Q5}, {"Q7", workload.Q7}, {"Q15", workload.Q15},
		{"distinct", "SELECT DISTINCT cleandate(cleandate(pubdate)) AS d FROM pubs"},
	} {
		id, sql := c.id, c.sql
		t.Run(id, func(t *testing.T) {
			out, executable, err := in.QF.RewriteSQL(in.Eng, sql)
			if err != nil {
				t.Fatal(err)
			}
			q, _, err := in.QF.Process(in.Eng, sql)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(q.Explain(), "FusedAgg") || !strings.Contains(out, "GROUP BY") {
				t.Fatalf("no fused aggregate rendered:\n%s\n%s", q.Explain(), out)
			}
			if id == "Q3" {
				return
			}
			if !executable {
				t.Fatalf("path 1 SQL is display-only:\n%s", out)
			}
			want, err := in.Query(sql)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			got, err := in.Query(out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if want.NumRows() != got.NumRows() {
				t.Fatalf("rows: native=%d path 1=%d\n%s", want.NumRows(), got.NumRows(), out)
			}
			wk, gk := keysOf(want), keysOf(got)
			for k, n := range wk {
				if gk[k] != n {
					t.Fatalf("row %q: native×%d path 1×%d\n%s", k, n, gk[k], out)
				}
			}
		})
	}
}

// TestPaperQueriesDrainGeneratorsByPush: every generator in Q1–Q18 —
// Q3's itertools.combinations loop, the expand UDFs of Q6, Q7 and Q17,
// the table UDFs' input — is drained by a loop or by ffi's eachRow,
// natively and fused, so no query starts a coroutine (see
// pylite.Generator). The benchmark's udf_scan measures this path.
func TestPaperQueriesDrainGeneratorsByPush(t *testing.T) {
	in := setup(t)
	pulls := obs.Default.Counter("pylite.generator_pulls")
	for id, sql := range workload.AllQueries() {
		before := pulls.Value()
		if _, err := in.Query(sql); err != nil {
			t.Fatalf("%s native: %v", id, err)
		}
		if _, err := in.QueryFused(sql); err != nil {
			t.Fatalf("%s fused: %v", id, err)
		}
		if n := pulls.Value() - before; n != 0 {
			t.Errorf("%s started %d generator coroutines", id, n)
		}
	}
}
