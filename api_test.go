package qfusor_test

import (
	"strings"
	"sync"
	"testing"

	"qfusor"
)

func openTestDB(t *testing.T, profile qfusor.Profile, opts ...qfusor.Option) *qfusor.DB {
	t.Helper()
	db, err := qfusor.Open(profile, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Define(`
@scalarudf
def slug(s: str) -> str:
    return s.strip().lower().replace(" ", "-")

@expandudf
def pieces(s: str) -> str:
    for p in s.split("-"):
        yield p

@aggregateudf
class longest:
    def init(self):
        self.best = ""
    def step(self, s):
        if s is not None and len(s) > len(self.best):
            self.best = s
    def final(self):
        return self.best
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(qfusor.UDFSpec{Name: "longest", Kind: qfusor.Aggregate,
		In:  []qfusor.Kind{qfusor.KindString},
		Out: []qfusor.Kind{qfusor.KindString}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE notes (id int, title string)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO notes VALUES
		(1, '  Hello World  '), (2, 'Go Databases'), (3, 'Query Fusion Rocks')`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	res, err := db.Query("SELECT id, slug(title) AS s FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 || res.Cols[1].Get(0).String() != "hello-world" {
		t.Fatalf("got %s", qfusor.Format(res, 5))
	}
	// Native and fused agree.
	nat, err := db.QueryNative("SELECT slug(title) AS s FROM notes ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	fus, err := db.Query("SELECT slug(title) AS s FROM notes ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if nat.Cols[0].Get(i).String() != fus.Cols[0].Get(i).String() {
			t.Fatalf("row %d: %v vs %v", i, nat.Cols[0].Get(i), fus.Cols[0].Get(i))
		}
	}
}

func TestPublicAPIExpandAggregate(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	res, err := db.Query(
		"SELECT longest(p) AS l FROM (SELECT pieces(slug(title)) AS p FROM notes) AS x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Get(0).String() != "databases" {
		t.Fatalf("longest piece = %v", res.Cols[0].Get(0))
	}
	if db.LastReport().Sections == 0 {
		t.Fatal("no fusion happened")
	}
}

func TestPublicAPIExplainShowsWrapper(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	plan, err := db.Explain("SELECT slug(title) AS s FROM notes WHERE slug(title) != 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Fused") && !strings.Contains(plan, "__qf_fused") {
		t.Fatalf("explain lacks fusion markers:\n%s", plan)
	}
}

func TestPublicAPIDMLWithUDF(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	if err := db.Exec("UPDATE notes SET title = slug(title) WHERE id <= 2"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT title FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Get(0).String() != "hello-world" || res.Cols[0].Get(2).String() != "Query Fusion Rocks" {
		t.Fatalf("update applied wrong rows: %s", qfusor.Format(res, 5))
	}
	if err := db.Exec("DELETE FROM notes WHERE length(slug(title)) > 12"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query("SELECT COUNT(*) FROM notes")
	if v, _ := res.Cols[0].Get(0).AsInt(); v != 2 {
		t.Fatalf("rows after delete = %d", v)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	opts := qfusor.DefaultOptions()
	opts.Fusion = false
	db.SetOptions(opts)
	if _, err := db.Query("SELECT slug(title) FROM notes"); err != nil {
		t.Fatal(err)
	}
	if db.LastReport().Sections != 0 {
		t.Fatal("fusion ran while disabled")
	}
}

// TestOpenRejectsUnknownTier: a tier pin outside vm, closure and auto
// is an error, not a silent auto.
func TestOpenRejectsUnknownTier(t *testing.T) {
	if db, err := qfusor.Open(qfusor.MonetDB, qfusor.WithTier("bogus")); err == nil {
		db.Close()
		t.Fatal("Open accepted tier \"bogus\"")
	}
	db, err := qfusor.Open(qfusor.MonetDB, qfusor.WithTier("closure"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestPublicAPIOtherProfiles(t *testing.T) {
	for _, p := range []qfusor.Profile{qfusor.SQLite, qfusor.PostgreSQL, qfusor.DuckDB} {
		t.Run(string(p), func(t *testing.T) {
			db := openTestDB(t, p)
			res, err := db.Query("SELECT slug(title) FROM notes ORDER BY 1 LIMIT 1")
			if err != nil {
				t.Fatal(err)
			}
			if res.Cols[0].Get(0).String() != "go-databases" {
				t.Fatalf("got %v", res.Cols[0].Get(0))
			}
		})
	}
}

func TestTablesAndUDFListing(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	found := false
	for _, n := range db.Tables() {
		if n == "notes" {
			found = true
		}
	}
	if !found {
		t.Fatal("notes table missing from listing")
	}
	udfs := strings.Join(db.UDFList(), "\n")
	if !strings.Contains(udfs, "slug(string) -> string") {
		t.Fatalf("udf listing:\n%s", udfs)
	}
}

// TestUDFListOmitsFusedWrappers: a fused query's wrappers belong to its
// plan, so the UDF listing (the CLI's \udfs) shows only what was
// defined.
func TestUDFListOmitsFusedWrappers(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	if _, err := db.Query("SELECT slug(title) AS s FROM notes WHERE slug(title) != 'zzz'"); err != nil {
		t.Fatal(err)
	}
	if db.LastReport().Sections == 0 {
		t.Fatal("query fused nothing")
	}
	for _, u := range db.UDFList() {
		if strings.HasPrefix(u, "__qf_") {
			t.Fatalf("UDF listing holds fused wrapper %s", u)
		}
	}
}

// TestRewriteSQLPath1 exercises the paper's rewrite path 1: the fused
// query rendered as SQL, re-submitted to the engine, produces the same
// result as direct plan execution.
func TestRewriteSQLPath1(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	sql := "SELECT slug(title) AS s FROM notes WHERE slug(title) != 'zzz'"
	rewritten, executable, err := db.RewriteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rewritten, "__qf_fused") {
		t.Fatalf("rewritten SQL lacks the fused wrapper:\n%s", rewritten)
	}
	if !executable {
		t.Fatalf("single-chain rewrite should be executable:\n%s", rewritten)
	}
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryNative(rewritten)
	if err != nil {
		t.Fatalf("re-submission failed: %v\n%s", err, rewritten)
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("rows %d vs %d\n%s", want.NumRows(), got.NumRows(), rewritten)
	}
	for i := 0; i < want.NumRows(); i++ {
		if want.Cols[0].Get(i).String() != got.Cols[0].Get(i).String() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestExecFusedDML: UPDATE with a UDF pipeline goes through fusion
// (§4.2.5) and matches plain execution.
func TestExecFusedDML(t *testing.T) {
	plain := openTestDB(t, qfusor.MonetDB)
	fused := openTestDB(t, qfusor.MonetDB)
	stmt := "UPDATE notes SET title = pieces_first(slug(title)) WHERE slug(title) != 'go-databases'"
	for _, db := range []*qfusor.DB{plain, fused} {
		if err := db.Define(`
@scalarudf
def pieces_first(s: str) -> str:
    return s.split("-")[0]
`); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	if err := fused.ExecFused(stmt); err != nil {
		t.Fatal(err)
	}
	if fused.LastReport().Sections == 0 {
		t.Fatal("DML fusion produced no sections")
	}
	a, _ := plain.Query("SELECT title FROM notes ORDER BY id")
	b, _ := fused.Query("SELECT title FROM notes ORDER BY id")
	for i := 0; i < a.NumRows(); i++ {
		if a.Cols[0].Get(i).String() != b.Cols[0].Get(i).String() {
			t.Fatalf("row %d: %v vs %v", i, a.Cols[0].Get(i), b.Cols[0].Get(i))
		}
	}
}

// TestQueryAnalyze: EXPLAIN ANALYZE on a fusing query must return a
// span tree covering all five optimizer phases plus execution, with
// per-operator row counts and per-UDF wrapper-vs-body time.
func TestQueryAnalyze(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	a, err := db.QueryAnalyze(
		"SELECT longest(p) AS l FROM (SELECT pieces(slug(title)) AS p FROM notes) AS x")
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cols[0].Get(0).String() != "databases" {
		t.Fatalf("analyzed result wrong: %s", qfusor.Format(a.Result, 5))
	}
	if a.Report.Sections == 0 {
		t.Fatal("query did not fuse — test precondition broken")
	}
	for _, phase := range []string{
		"phase:plan_probe", "phase:dfg_build", "phase:discover",
		"phase:codegen", "phase:rewrite", "phase:execute",
	} {
		if a.Root.Find(phase) == nil {
			t.Errorf("span tree missing %s:\n%s", phase, a.Root.Render())
		}
	}
	// The codegen phase carries one child span per generated wrapper.
	cg := a.Root.Find("phase:codegen")
	if cg.Find("wrapper") == nil {
		t.Errorf("no wrapper span under phase:codegen:\n%s", a.Root.Render())
	}
	// Every executed operator span reports its output cardinality, and
	// the fused operator is marked with its section membership.
	ex := a.Root.Find("phase:execute")
	if ex == nil {
		t.Fatal("no execute phase")
	}
	ops, fusedOps := 0, 0
	ex.Walk(func(sp *qfusor.Span, depth int) {
		if !strings.HasPrefix(sp.Name, "op:") {
			return
		}
		ops++
		if _, ok := sp.Counter("rows_out"); !ok {
			t.Errorf("operator %s has no rows_out counter", sp.Name)
		}
		if sec, _ := sp.Attr("section"); sec == "fused" {
			fusedOps++
			if rows, _ := sp.Counter("rows_out"); rows == 0 {
				t.Errorf("fused operator %s reports zero rows_out", sp.Name)
			}
		}
	})
	if ops == 0 {
		t.Fatalf("no operator spans under phase:execute:\n%s", a.Root.Render())
	}
	if fusedOps == 0 {
		t.Fatalf("no operator marked section=fused:\n%s", a.Root.Render())
	}
	// UDF usage distinguishes wrapper (boundary) time from body time.
	if len(a.UDFs) == 0 {
		t.Fatal("analysis reports no UDF usage")
	}
	for _, u := range a.UDFs {
		if u.Wall != u.Wrapper+u.Body {
			t.Errorf("%s: wall %v != wrapper %v + body %v", u.Name, u.Wall, u.Wrapper, u.Body)
		}
		if u.RowsIn == 0 || u.Calls == 0 {
			t.Errorf("%s: empty usage %+v", u.Name, u)
		}
	}
	// The metrics delta covers this query's engine activity.
	if a.Metrics.Counters["engine.queries"] == 0 {
		t.Errorf("metrics delta missing engine.queries: %+v", a.Metrics.Counters)
	}
	// Render includes the tree and the UDF table without panicking.
	out := a.Render()
	if !strings.Contains(out, "phase:codegen") || !strings.Contains(out, "wrapper") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

// TestQueryAnalyzeCacheHit: re-analyzing the same query must report a
// wrapper cache hit on the second run. The plan-decision cache is off
// here so the second run re-enters codegen and exercises the wrapper
// compile cache (with it on, the whole front-end is skipped — covered
// by the plancache tests).
func TestQueryAnalyzeCacheHit(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB, qfusor.WithPlanCache(false))
	sql := "SELECT longest(p) AS l FROM (SELECT pieces(slug(title)) AS p FROM notes) AS x"
	if _, err := db.QueryAnalyze(sql); err != nil {
		t.Fatal(err)
	}
	a, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Root.Find("wrapper")
	if w == nil {
		t.Fatalf("no wrapper span:\n%s", a.Root.Render())
	}
	if c, _ := w.Attr("cache"); c != "hit" {
		t.Errorf("second run wrapper cache = %q, want hit", c)
	}
	if a.Report.CacheHits == 0 {
		t.Error("second run reported no cache hits")
	}
}

// TestConcurrentQueriesRaceFree hammers one DB from many goroutines
// mixing Query, QueryAnalyze and LastReport — meaningful under -race.
func TestConcurrentQueriesRaceFree(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				switch (i + j) % 3 {
				case 0:
					if _, err := db.Query("SELECT slug(title) FROM notes"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					a, err := db.QueryAnalyze("SELECT id, slug(title) FROM notes ORDER BY id")
					if err != nil {
						t.Error(err)
						return
					}
					if a.Root.Find("phase:execute") == nil {
						t.Error("analysis missing execute phase")
						return
					}
				default:
					_ = db.LastReport()
					_ = qfusor.Metrics()
				}
			}
		}(i)
	}
	wg.Wait()
}
