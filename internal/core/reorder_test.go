package core_test

import (
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/sqlengine"
)

// TestReorderedFilterMovesBelowFusedSection: a filter on fields the UDF
// section never touches is reordered engine-side below the fused node
// (F3), and results are unchanged.
func TestReorderedFilterMovesBelowFusedSection(t *testing.T) {
	eng, qf := buildEngine(t)
	// The filter on id is disjoint from the name-UDF chain; the chain
	// plus the post-UDF filter fuse, and `id <= 5` should run in the
	// engine below.
	sql := `
SELECT n FROM (SELECT upname(firstword(name)) AS n, id FROM people) AS x
WHERE id <= 5 AND n != 'ZZZ'`
	rep := assertSameResult(t, eng, qf, sql)
	if rep.Sections == 0 {
		t.Fatal("nothing fused")
	}
	q, _, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Explain()
	// The engine-side filter must sit below the fused node.
	fusedAt := strings.Index(plan, "Fused")
	filterAt := strings.Index(plan, "Filter")
	if fusedAt < 0 {
		t.Fatalf("no fused node:\n%s", plan)
	}
	if filterAt >= 0 && filterAt < fusedAt {
		t.Fatalf("filter not below fused node:\n%s", plan)
	}
}

// TestDistinctOffloadSingleShot: a fused DISTINCT is a FusedAgg with no
// aggregates — its wrapper keeps no state across rows, and the engine's
// aggregate dedups what every morsel yields — so it agrees with native at
// every morsel size, and over 4 000 rows its wrapper runs on the VM tier,
// one crossing per morsel.
func TestDistinctOffloadSingleShot(t *testing.T) {
	eng, qf := buildEngine(t)
	addBig(t, eng)
	eng.Parallelism = 4
	for _, size := range []int{1, 7} {
		eng.MorselSize = size
		assertSameResult(t, eng, qf, "SELECT DISTINCT upname(firstword(city)) AS c FROM people")
	}
	eng.MorselSize = 0
	const sql = "SELECT DISTINCT upname(firstword(city)) AS c FROM big"
	assertSameResult(t, eng, qf, sql)
	q, _, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	aggs := fusedAggs(q)
	if len(aggs) != 1 || len(aggs[0].Aggs) != 0 || len(aggs[0].GroupBy) != 1 {
		t.Fatalf("want one FusedAgg with one key and no aggregates:\n%s", q.Explain())
	}
	u := aggs[0].UDF
	if u.Trace().Tier() != core.TierVM {
		t.Fatalf("wrapper %s is not on the VM tier", u.Name)
	}
	before := u.Stats.Calls.Load()
	if _, err := eng.Execute(q); err != nil {
		t.Fatal(err)
	}
	if calls := u.Stats.Calls.Load() - before; calls < 2 {
		t.Fatalf("the wrapper ran %d morsels over 4 000 rows, want more than one", calls)
	}
}

// TestSegmentsStopAtJoins: segments never cross join/sort boundaries.
func TestSegmentsStopAtJoins(t *testing.T) {
	eng, _ := buildEngine(t)
	q, err := eng.Plan(`
SELECT a.name FROM people AS a, people AS b
WHERE a.id = b.id AND upname(a.name) != 'X'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range core.FindSegments(q.Root) {
		for _, p := range seg.Chain {
			if p.Op == sqlengine.OpJoin || p.Op == sqlengine.OpSort {
				t.Fatalf("segment contains %s", p.Op)
			}
		}
	}
}

// TestFusedWrapperSourcesAreValidPyLite: every wrapper trace renders as
// Python-like pseudo-source that parses and defines in a fresh runtime
// (the printer's contract: EXPLAIN shows the paper's generated wrapper).
func TestFusedWrapperSourcesAreValidPyLite(t *testing.T) {
	eng, qf := buildEngine(t)
	queries := []string{
		"SELECT upname(firstword(name)) FROM people",
		"SELECT city, SUM(addten(age)) FROM people WHERE addten(age) > 20 GROUP BY city",
		"SELECT id, explode(upname(name)) AS w FROM people",
		"SELECT DISTINCT upname(city) FROM people",
	}
	reg := core.NewRegistry(0)
	for _, sql := range queries {
		_, rep, err := qf.Process(eng, sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range rep.Sources {
			// The wrapper calls UDFs that exist only in the original
			// runtime; define stand-ins so Exec succeeds.
			stubbed := `
def upname(s):
    return s
def firstword(s):
    return s
def addten(x):
    return x
def explode(s):
    yield s
` + src
			if err := reg.Define(stubbed); err != nil {
				t.Fatalf("wrapper does not parse: %v\n%s", err, src)
			}
		}
	}
}

// TestRenderSQLForCTEAndAgg: rewrite path 1 renders CTE queries and
// flags aggregate fusions as display-only.
func TestRenderSQLForCTEAndAgg(t *testing.T) {
	eng, qf := buildEngine(t)
	q, _, err := qf.Process(eng, `
WITH clean(id, n) AS (SELECT id, upname(firstword(name)) FROM people)
SELECT n FROM clean WHERE id > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sql, _ := core.RenderSQL(q)
	if !strings.Contains(sql, "WITH clean") {
		t.Fatalf("CTE missing:\n%s", sql)
	}
	q2, _, err := qf.Process(eng,
		"SELECT city, SUM(addten(age)) FROM people GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	sql2, executable := core.RenderSQL(q2)
	if len(fusedAggs(q2)) == 0 {
		t.Fatalf("the aggregate did not fuse:\n%s", q2.Explain())
	}
	// A fused aggregate renders as a GROUP BY over its wrapper's output,
	// which re-submits.
	if !executable || !strings.Contains(sql2, "GROUP BY") {
		t.Fatalf("aggregate fusion should render executable SQL:\n%s", sql2)
	}
	// Group keys are reached by name: two of one name cannot re-submit.
	q3, _, err := qf.Process(eng,
		"SELECT DISTINCT upname(firstword(name)), upname(firstword(city)) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if sql3, executable := core.RenderSQL(q3); executable {
		t.Fatalf("keys of one name rendered as executable SQL:\n%s", sql3)
	}
}
