package qfusor_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"qfusor"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
)

// renderRows makes results comparable bit-for-bit across paths.
func renderRows(t *testing.T, res *qfusor.Table) string {
	t.Helper()
	return qfusor.Format(res, 0)
}

// chaosBaseline computes the native answer on a fault-free instance.
func chaosBaseline(t *testing.T, profile qfusor.Profile, sql string) string {
	t.Helper()
	faultinject.Reset()
	db := openTestDB(t, profile)
	res, err := db.QueryNative(sql)
	if err != nil {
		t.Fatalf("baseline %s on %s: %v", sql, profile, err)
	}
	return renderRows(t, res)
}

// TestChaosSweep is the resilience acceptance gate: every registered
// fault point is armed in turn (error, panic, and — where meaningful —
// worker-kill) against a fusing query on each execution model. The
// invariant: the query either returns the exact native answer (the
// degradation ladder absorbed the fault) or a typed *qfusor.QueryError
// whose chain reaches the injected sentinel. Never a crash, never a
// silently wrong result.
func TestChaosSweep(t *testing.T) {
	// slug(slug(...)) forms a two-call scalar chain, which is the
	// fusion threshold — the query exercises a fused wrapper, not just
	// plain UDF calls.
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	profiles := []qfusor.Profile{qfusor.MonetDB, qfusor.SQLite, qfusor.DuckDB, qfusor.PostgreSQL}
	kindsFor := func(point string) []faultinject.Kind {
		ks := []faultinject.Kind{faultinject.Error, faultinject.Panic}
		if strings.HasPrefix(point, "proc.") {
			ks = append(ks, faultinject.WorkerKill)
		}
		return ks
	}
	for _, profile := range profiles {
		want := chaosBaseline(t, profile, sql)
		for _, point := range faultinject.Names() {
			for _, kind := range kindsFor(point) {
				name := string(profile) + "/" + point + "/" + kind.String()
				t.Run(name, func(t *testing.T) {
					faultinject.Reset()
					defer faultinject.Reset()
					db := openTestDB(t, profile) // UDFs defined before arming
					if err := faultinject.Enable(point, faultinject.Spec{Kind: kind}); err != nil {
						t.Fatal(err)
					}
					res, err := db.Query(sql)
					if err == nil {
						if got := renderRows(t, res); got != want {
							t.Fatalf("fault %s: wrong result\ngot:\n%s\nwant:\n%s", name, got, want)
						}
						return
					}
					var qe *qfusor.QueryError
					if !errors.As(err, &qe) {
						t.Fatalf("fault %s: untyped error %v", name, err)
					}
					if !errors.Is(err, faultinject.ErrInjected) && !faultinject.IsWorkerKill(err) {
						// A panic fault surfaces as a recovered PanicError
						// wrapping the injected panic value.
						var pe *resilience.PanicError
						var ip *faultinject.InjectedPanic
						if !errors.As(err, &pe) && !errors.As(err, &ip) {
							t.Fatalf("fault %s: cause chain lost the injection: %v", name, err)
						}
					}
				})
			}
		}
	}
}

// TestChaosFallbackIdentical pins the degradation ladder's first rung:
// a fault only on the fused wrapper must produce the native answer
// transparently, flag the fallback in the report, and count it in the
// metrics registry.
func TestChaosFallbackIdentical(t *testing.T) {
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	want := chaosBaseline(t, qfusor.MonetDB, sql)
	faultinject.Reset()
	defer faultinject.Reset()
	db := openTestDB(t, qfusor.MonetDB)
	if err := faultinject.Enable("ffi.fused", faultinject.Spec{Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	m0 := qfusor.Metrics()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("fused-only fault must degrade, got error: %v", err)
	}
	if got := renderRows(t, res); got != want {
		t.Fatalf("fallback result differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	rep := db.LastReport()
	if rep.Sections == 0 {
		t.Fatalf("test premise broken: query did not fuse any section: %+v", rep)
	}
	if !rep.Fallback || rep.FallbackReason == "" {
		t.Fatalf("fallback not recorded in report: %+v", rep)
	}
	d := qfusor.Metrics().Diff(m0)
	if d.Counters["qfusor.fallbacks"] < 1 {
		t.Fatalf("qfusor.fallbacks not incremented: %v", d.Counters["qfusor.fallbacks"])
	}
}

// TestChaosFaultOnCachedPlan arms a fused-path fault *after* a plan is
// cached: the cached plan's execution fails, the query must degrade to
// the exact native answer, and the failing entry must be evicted so the
// cache can never serve the doomed plan again.
func TestChaosFaultOnCachedPlan(t *testing.T) {
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	want := chaosBaseline(t, qfusor.MonetDB, sql)
	faultinject.Reset()
	defer faultinject.Reset()
	db := openTestDB(t, qfusor.MonetDB)
	// Prime: second run is served from the plan cache.
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits < 1 || st.Size != 1 {
		t.Fatalf("premise broken: cache not primed: %+v", st)
	}
	if err := faultinject.Enable("ffi.fused", faultinject.Spec{Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("cached-plan fault must degrade, got error: %v", err)
	}
	if got := renderRows(t, res); got != want {
		t.Fatalf("degraded result differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	after := db.PlanCacheStats()
	if after.Size != 0 {
		t.Fatalf("failing cached plan was not evicted: %+v", after)
	}
	if after.Invalidations <= st.Invalidations {
		t.Fatalf("eviction not counted as invalidation: %+v -> %+v", st, after)
	}
}

// TestChaosAnalyzeDegradesLikeFused: EXPLAIN ANALYZE runs the same
// resilient ladder as a plain fused query, so a fused failure on a
// cached plan does in analyze mode exactly what it does in fused mode —
// native-identical rows, the cached plan evicted, one
// qfusor.fallbacks{reason=exec_error} per failure, the query's and the
// wrapper's circuits tripped at the third, and the fourth routed
// through the open breaker without touching the front-end.
func TestChaosAnalyzeDegradesLikeFused(t *testing.T) {
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	want := chaosBaseline(t, qfusor.MonetDB, sql)
	modes := map[string]func(db *qfusor.DB) (*qfusor.Table, error){
		"fused": func(db *qfusor.DB) (*qfusor.Table, error) { return db.Query(sql) },
		"analyze": func(db *qfusor.DB) (*qfusor.Table, error) {
			a, err := db.QueryAnalyze(sql)
			if err != nil {
				return nil, err
			}
			// A failed fused attempt reruns under a phase:fallback span; the
			// open breaker skips the attempt, so there is nothing to fall from.
			skipped := a.Report.FallbackReason == "circuit breaker open"
			if !a.Report.Fallback || strings.Contains(a.Render(), "phase:fallback") == skipped {
				return nil, fmt.Errorf("analysis does not show the fallback: %+v\n%s", a.Report, a.Render())
			}
			return a.Result, nil
		},
	}
	type outcome struct {
		execErrors, breakerSkips, trips, evictions, cached int64
	}
	got := map[string]outcome{}
	for mode, run := range modes {
		faultinject.Reset()
		db := openTestDB(t, qfusor.MonetDB)
		for i := 0; i < 2; i++ { // prime: the second run is a plan-cache hit
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		if err := faultinject.Enable("ffi.fused", faultinject.Spec{Kind: faultinject.Error}); err != nil {
			t.Fatal(err)
		}
		m0, pc0 := qfusor.Metrics(), db.PlanCacheStats()
		for i := 0; i < 4; i++ { // three failures open the circuits; the fourth skips
			res, err := run(db)
			if err != nil {
				t.Fatalf("%s attempt %d: must degrade, got error: %v", mode, i, err)
			}
			if r := renderRows(t, res); r != want {
				t.Fatalf("%s attempt %d: wrong result\ngot:\n%s\nwant:\n%s", mode, i, r, want)
			}
		}
		faultinject.Reset()
		d, pc := qfusor.Metrics().Diff(m0), db.PlanCacheStats()
		got[mode] = outcome{
			execErrors:   d.Counters[obs.LabeledName("qfusor.fallbacks", "reason", "exec_error")],
			breakerSkips: d.Counters[obs.LabeledName("qfusor.fallbacks", "reason", "breaker_open")],
			trips:        d.Counters["qfusor.breaker_trips"],
			evictions:    pc.Invalidations - pc0.Invalidations,
			cached:       int64(pc.Size),
		}
	}
	if want := (outcome{execErrors: 3, breakerSkips: 1, trips: 2, evictions: got["fused"].evictions}); got["fused"] != want || want.evictions < 1 {
		t.Fatalf("premise broken: fused mode degraded as %+v", got["fused"])
	}
	if got["analyze"] != got["fused"] {
		t.Fatalf("analyze mode degraded as %+v, fused mode as %+v", got["analyze"], got["fused"])
	}
}

// TestChaosBreakerBlocksPlanCache drives the breaker open on a fusing
// query (threshold 3) and checks the interplay with the plan cache:
// while failures accumulate, every attempt degrades to the exact native
// answer and no failing plan is ever re-served from the cache; once the
// circuit opens, queries route straight to the native plan without
// touching the optimizer front-end — so the cache must not repopulate.
func TestChaosBreakerBlocksPlanCache(t *testing.T) {
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	want := chaosBaseline(t, qfusor.MonetDB, sql)
	faultinject.Reset()
	defer faultinject.Reset()
	db := openTestDB(t, qfusor.MonetDB)
	if _, err := db.Query(sql); err != nil { // cache the healthy plan
		t.Fatal(err)
	}
	if err := faultinject.Enable("ffi.fused", faultinject.Spec{Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	// Breaker threshold is 3: drive it open, then two more through the
	// open circuit. Every single attempt must return the native answer.
	for i := 0; i < 5; i++ {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("attempt %d: must degrade, got error: %v", i, err)
		}
		if got := renderRows(t, res); got != want {
			t.Fatalf("attempt %d: wrong result\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
	rep := db.LastReport()
	if !rep.Fallback {
		t.Fatalf("breaker-open query not flagged as fallback: %+v", rep)
	}
	if st := db.PlanCacheStats(); st.Size != 0 {
		t.Fatalf("plan cache repopulated while the fused path was failing: %+v", st)
	}
}

// TestChaosCancellationLatency: cancelling a QueryContext mid-flight
// must return promptly (within morsel/statement granularity, bounded
// here at two seconds) with a typed cancelled error carrying the
// context cause.
func TestChaosCancellationLatency(t *testing.T) {
	faultinject.Reset()
	db := openTestDB(t, qfusor.MonetDB)
	if err := db.Define(`
@scalarudf
def spinsum(x: int) -> int:
    t = 0
    i = 0
    while i < 2000000:
        t = t + i
        i = i + 1
    return t + x
`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT spinsum(id) FROM notes")
	elapsed := time.Since(start)
	if err == nil {
		// The query may legitimately win the race on a fast machine.
		t.Skip("query finished before cancellation")
	}
	var qe *qfusor.QueryError
	if !errors.As(err, &qe) || qe.Stage != "cancelled" {
		t.Fatalf("want QueryError stage cancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context cause lost from chain: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestChaosStepBudget: a runaway UDF loop on a step-budgeted DB is
// interrupted and surfaces as a cancelled QueryError rather than
// hanging or being retried on the native plan.
func TestChaosStepBudget(t *testing.T) {
	faultinject.Reset()
	db, err := qfusor.Open(qfusor.MonetDB, qfusor.WithStepBudget(50_000))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Define(`
@scalarudf
def forever(x: int) -> int:
    while True:
        x = x + 1
    return x
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE t (id int)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(context.Background(), "SELECT forever(id) FROM t")
		done <- err
	}()
	select {
	case err := <-done:
		var qe *qfusor.QueryError
		if !errors.As(err, &qe) || qe.Stage != "cancelled" {
			t.Fatalf("want cancelled QueryError, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step budget did not stop the runaway loop")
	}
}

// TestChaosTimeoutDeadline: a context deadline behaves like
// cancellation and carries DeadlineExceeded in the chain.
func TestChaosTimeoutDeadline(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	db := openTestDB(t, qfusor.MonetDB)
	// Stall the morsel workers so the deadline reliably fires first.
	if err := faultinject.Enable("morsel.worker", faultinject.Spec{
		Kind: faultinject.Delay, Delay: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, "SELECT slug(title) FROM notes")
	if err == nil {
		t.Skip("query finished before the deadline")
	}
	var qe *qfusor.QueryError
	if !errors.As(err, &qe) || qe.Stage != "cancelled" {
		t.Fatalf("want cancelled QueryError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause lost from chain: %v", err)
	}
}

// TestChaosInterruptInsideFusedSection: UDFs fused into a section run
// on the section wrapper's per-query runtime view, so the query's step
// budget and context stop them wherever they run inside the trace — as
// an interpreted call (a body the closure compiler rejects), as an
// expanding generator, and as a UDF aggregate's step. JIT is off so
// nothing outside the trace compiles them. Each must surface as a typed
// `cancelled` QueryError, never as a fallback to the native plan.
func TestChaosInterruptInsideFusedSection(t *testing.T) {
	faultinject.Reset()
	const lib = `
@scalarudf
def spinscalar(s: str) -> str:
    if s is None:
        del s.nothing
    i = 0
    while i < 1000000000:
        i = i + 1
    return s

@expandudf
def spinexpand(s: str) -> str:
    i = 0
    while i < 1000000000:
        i = i + 1
    yield s

@aggregateudf
class spinagg:
    def init(self):
        self.n = 0
    def step(self, s):
        while self.n < 1000000000:
            self.n = self.n + 1
    def final(self):
        return self.n
`
	cases := map[string]string{
		"interpreted_scalar": "SELECT slug(spinscalar(title)) AS s FROM notes",
		"expand":             "SELECT spinexpand(slug(title)) AS s FROM notes",
		"aggregate":          "SELECT spinagg(slug(title)) AS n FROM notes",
	}
	stops := map[string]func(t *testing.T) (*qfusor.DB, context.Context){
		"step_budget": func(t *testing.T) (*qfusor.DB, context.Context) {
			return openTestDB(t, qfusor.MonetDB, qfusor.WithJIT(false), qfusor.WithStepBudget(20_000)), context.Background()
		},
		"cancelled_context": func(t *testing.T) (*qfusor.DB, context.Context) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			t.Cleanup(cancel)
			return openTestDB(t, qfusor.MonetDB, qfusor.WithJIT(false)), ctx
		},
	}
	for stop, open := range stops {
		for name, sql := range cases {
			t.Run(stop+"/"+name, func(t *testing.T) {
				db, ctx := open(t)
				if err := db.Define(lib); err != nil {
					t.Fatal(err)
				}
				if err := db.Register(qfusor.UDFSpec{Name: "spinagg", Kind: qfusor.Aggregate,
					In: []qfusor.Kind{qfusor.KindString}, Out: []qfusor.Kind{qfusor.KindInt}}); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					_, err := db.QueryContext(ctx, sql)
					done <- err
				}()
				select {
				case err := <-done:
					var qe *qfusor.QueryError
					if !errors.As(err, &qe) || qe.Stage != "cancelled" {
						t.Fatalf("want cancelled QueryError, got %v", err)
					}
					if rep := db.LastReport(); rep.Sections != 1 {
						t.Fatalf("premise broken: the UDF was not fused into a section: %+v", rep)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the query's interrupt did not reach the fused UDF")
				}
			})
		}
	}
}
