package qfusor_test

import (
	"fmt"
	"strings"

	"testing"

	"qfusor"
)

// TestPlanCacheHitSkipsFrontend pins the tentpole behavior: the second
// run of a UDF query is served from the plan-decision cache (Report
// says "hit", stats count it) and still returns the same rows.
func TestPlanCacheHitSkipsFrontend(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	cold, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Report.PlanCache; got != "miss" {
		t.Fatalf("first run PlanCache = %q, want miss", got)
	}
	warm, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Report.PlanCache; got != "hit" {
		t.Fatalf("second run PlanCache = %q, want hit", got)
	}
	if got, want := renderRows(t, warm.Result), renderRows(t, cold.Result); got != want {
		t.Fatalf("cached plan changed the result\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The warm span tree must show the front-end was skipped.
	if warm.Root.Find("phase:plancache") == nil {
		t.Fatalf("no phase:plancache span:\n%s", warm.Root.Render())
	}
	for _, phase := range []string{"phase:dfg_build", "phase:discover", "phase:codegen", "phase:rewrite"} {
		if warm.Root.Find(phase) != nil {
			t.Fatalf("warm run still ran %s:\n%s", phase, warm.Root.Render())
		}
	}
	st := db.PlanCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats did not record the hit/miss pair: %+v", st)
	}
	// Surrounding whitespace and a trailing semicolon share the entry:
	// still a hit, not a new plan.
	again, err := db.QueryAnalyze("\n " + sql + ";\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Report.PlanCache; got != "hit" {
		t.Fatalf("reformatted repeat PlanCache = %q, want hit", got)
	}
}

// TestPlanCacheKeepsLiteralWhitespace: two statements that differ only
// in the whitespace inside a string literal get a plan each, so the
// second runs with its own literal, not the first one's.
func TestPlanCacheKeepsLiteralWhitespace(t *testing.T) {
	for _, p := range []qfusor.Profile{qfusor.MonetDB, qfusor.SQLite, qfusor.PostgreSQL} {
		t.Run(string(p), func(t *testing.T) {
			db, err := qfusor.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(db.Close)
			if err := db.Exec("CREATE TABLE t (s string)"); err != nil {
				t.Fatal(err)
			}
			if err := db.Exec("INSERT INTO t VALUES ('a b'), ('a  b'), ('a  b')"); err != nil {
				t.Fatal(err)
			}
			if err := db.Define("@scalarudf\ndef up(s: str) -> str:\n    return s.upper()\n"); err != nil {
				t.Fatal(err)
			}
			for _, lit := range []string{"A  B", "A B"} {
				sql := fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE up(s) = '%s'", lit)
				native, err := db.QueryNative(sql)
				if err != nil {
					t.Fatal(err)
				}
				fused, err := db.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderRows(t, fused), renderRows(t, native); got != want {
					t.Fatalf("%s:\nfused:\n%s\nnative:\n%s", sql, got, want)
				}
			}
		})
	}
}

// TestPlanCacheDMLInvalidation: every DML statement moves the catalog
// epoch, so a cached plan is retired and the re-planned query sees the
// mutation (the correctness half) while stats count the invalidation
// (the accounting half).
func TestPlanCacheDMLInvalidation(t *testing.T) {
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	steps := []struct {
		name string
		dml  string
		want string // substring the post-DML result must (or must not) contain
		gone bool   // true = want must be absent
	}{
		{"insert", "INSERT INTO notes VALUES (4, 'Fresh Row')", "fresh-row", false},
		{"update", "UPDATE notes SET title = 'Changed Title' WHERE id = 2", "changed-title", false},
		{"delete", "DELETE FROM notes WHERE id = 1", "hello-world", true},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			db := openTestDB(t, qfusor.MonetDB)
			if _, err := db.Query(sql); err != nil { // populate
				t.Fatal(err)
			}
			if a, err := db.QueryAnalyze(sql); err != nil {
				t.Fatal(err)
			} else if a.Report.PlanCache != "hit" {
				t.Fatalf("premise broken: repeat was %q, want hit", a.Report.PlanCache)
			}
			before := db.PlanCacheStats()
			if err := db.Exec(step.dml); err != nil {
				t.Fatal(err)
			}
			a, err := db.QueryAnalyze(sql)
			if err != nil {
				t.Fatal(err)
			}
			if a.Report.PlanCache != "miss" {
				t.Fatalf("post-DML run PlanCache = %q, want miss (stale plan served?)", a.Report.PlanCache)
			}
			got := renderRows(t, a.Result)
			if step.gone == strings.Contains(got, step.want) {
				t.Fatalf("post-%s result wrong (want %q absent=%v):\n%s", step.name, step.want, step.gone, got)
			}
			after := db.PlanCacheStats()
			if after.Invalidations <= before.Invalidations {
				t.Fatalf("DML did not count an invalidation: %+v -> %+v", before, after)
			}
		})
	}
}

// TestPlanCacheUDFRedefinition: re-registering a UDF bumps the epoch,
// so cached plans built against the old definition are retired and the
// new body takes effect on the very next query.
func TestPlanCacheUDFRedefinition(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	warm, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if err := db.Define(`
@scalarudf
def slug(s: str) -> str:
    return s.strip().upper().replace(" ", "_")
`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	got := renderRows(t, res)
	if got == renderRows(t, warm) {
		t.Fatalf("redefined UDF did not take effect (stale cached plan):\n%s", got)
	}
	if !strings.Contains(got, "HELLO_WORLD") {
		t.Fatalf("redefined slug not applied:\n%s", got)
	}
	// And the new plan caches again.
	a, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.PlanCache != "hit" {
		t.Fatalf("re-planned query did not re-cache: %q", a.Report.PlanCache)
	}
}

// TestPlanCacheLRUEviction: a cache capped at 2 entries cycling 3
// distinct queries must evict, and the evicted query re-plans as a miss.
func TestPlanCacheLRUEviction(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB, qfusor.WithPlanCacheSize(2))
	queries := []string{
		"SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id",
		"SELECT id, slug(slug(title)) AS s FROM notes WHERE id > 1 ORDER BY id",
		"SELECT longest(slug(title)) AS l FROM notes",
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Cap != 2 || st.Size != 2 {
		t.Fatalf("cache size = %d/%d, want 2/2", st.Size, st.Cap)
	}
	if st.Evictions < 1 {
		t.Fatalf("no eviction after cycling 3 queries through cap 2: %+v", st)
	}
	// queries[0] was the LRU victim: repeating it is a miss, while
	// queries[2] (most recent) still hits.
	a, err := db.QueryAnalyze(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.PlanCache != "miss" {
		t.Fatalf("evicted query reported %q, want miss", a.Report.PlanCache)
	}
	a, err = db.QueryAnalyze(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.PlanCache != "hit" {
		t.Fatalf("recent query reported %q, want hit", a.Report.PlanCache)
	}
}

// TestPlanCacheDMLInterleave alternates epoch-bumping inserts with the
// same cached query: every execution after a DML must re-plan (miss)
// and see exactly the committed rows, and every repeat without an
// intervening DML must hit. (Concurrent query execution over one cached
// plan is covered by TestDiffWarmConcurrent in internal/core; the
// engine's column storage itself is single-writer, so DML is not raced
// against readers here.)
func TestPlanCacheDMLInterleave(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	const sql = "SELECT id, slug(title) AS s FROM notes ORDER BY id"
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Exec(fmt.Sprintf("INSERT INTO notes VALUES (%d, 'Row %d')", 100+i, i)); err != nil {
			t.Fatal(err)
		}
		a, err := db.QueryAnalyze(sql)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report.PlanCache != "miss" {
			t.Fatalf("round %d: post-insert run reported %q, want miss", i, a.Report.PlanCache)
		}
		if n, want := a.Result.NumRows(), 3+i+1; n != want {
			t.Fatalf("round %d: stale result: %d rows, want %d", i, n, want)
		}
		a, err = db.QueryAnalyze(sql)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report.PlanCache != "hit" {
			t.Fatalf("round %d: quiet repeat reported %q, want hit", i, a.Report.PlanCache)
		}
	}
}
