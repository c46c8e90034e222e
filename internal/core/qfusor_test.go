package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// buildEngine creates an engine + QFusor sharing one registry.
func buildEngine(t *testing.T) (*sqlengine.Engine, *core.QFusor) {
	t.Helper()
	eng := sqlengine.New("monet", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)

	people := data.NewTable("people", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "name", Kind: data.KindString},
		{Name: "age", Kind: data.KindInt},
		{Name: "city", Kind: data.KindString},
		{Name: "joined", Kind: data.KindString},
		{Name: "tags", Kind: data.KindList},
	})
	rows := [][]data.Value{
		{data.Int(1), data.Str("Alice Smith"), data.Int(34), data.Str("athens"), data.Str("2019/03/14"), mkTags("a", "b")},
		{data.Int(2), data.Str("Bob Jones"), data.Int(28), data.Str("berlin"), data.Str("2020/11/02"), mkTags("b")},
		{data.Int(3), data.Str("Carol White"), data.Int(45), data.Str("athens"), data.Str("2018/01/20"), mkTags("c", "a", "d")},
		{data.Int(4), data.Str("dave black"), data.Int(19), data.Str("paris"), data.Str("2021/07/07"), mkTags()},
		{data.Int(5), data.Str("Eve Adams"), data.Int(52), data.Str("berlin"), data.Str("2017/05/30"), mkTags("e", "a")},
		{data.Int(6), data.Str("frank green"), data.Int(41), data.Str("paris"), data.Str("2022/12/25"), mkTags("f")},
	}
	for _, r := range rows {
		if err := people.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog.PutTable(people)

	reg := core.NewRegistry(4)
	src := `
@scalarudf
def upname(s: str) -> str:
    return s.upper()

@scalarudf
def firstword(s: str) -> str:
    return s.split(" ")[0]

@scalarudf
def addten(x: int) -> int:
    return x + 10

@scalarudf
def cleandate(s: str) -> str:
    return s.replace("/", "-")[0:10]

@scalarudf
def ntags(xs: list) -> int:
    return len(xs)

@aggregateudf
class strjoin:
    def init(self):
        self.parts = []
    def step(self, s):
        if s is not None:
            self.parts.append(s)
    def final(self):
        return ",".join(sorted(self.parts))

@expandudf
def explode(s: str) -> str:
    for w in s.split(" "):
        yield w

@tableudf
def splitall(rows) -> str:
    for r in rows:
        for w in r.split(" "):
            yield w

@tableudf
def splitboom(rows) -> str:
    n = 0
    for r in rows:
        n = n + 1
        if n == 3:
            raise ValueError("third row")
        yield r
`
	if err := reg.Define(src); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(core.UDFSpec{Name: "strjoin", Kind: ffi.Aggregate,
		In: []data.Kind{data.KindString}, Out: []data.Kind{data.KindString}}); err != nil {
		t.Fatal(err)
	}
	reg.Attach(eng)
	return eng, core.New(reg)
}

func mkTags(ss ...string) data.Value {
	items := make([]data.Value, len(ss))
	for i, s := range ss {
		items[i] = data.Str(s)
	}
	return data.NewList(items)
}

// assertSameResult runs sql unfused and through QFusor, comparing rows.
func assertSameResult(t *testing.T, eng *sqlengine.Engine, qf *core.QFusor, sql string) *core.Report {
	t.Helper()
	want, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("unfused: %v", err)
	}
	q, rep, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatalf("process: %v", err)
	}
	got, err := eng.Execute(q)
	if err != nil {
		t.Fatalf("fused execute: %v\nplan:\n%s\nsources:\n%s", err, q.Explain(), rep.Sources)
	}
	compareTables(t, want, got, q, rep)
	return rep
}

func compareTables(t *testing.T, want, got *data.Table, q *sqlengine.Query, rep *core.Report) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count: unfused=%d fused=%d\nplan:\n%s\nsources:\n%v",
			want.NumRows(), got.NumRows(), q.Explain(), rep.Sources)
	}
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("col count: %d vs %d", len(want.Cols), len(got.Cols))
	}
	// Compare as multisets of row keys (fusion may change row order).
	wkeys := rowKeys(want)
	gkeys := rowKeys(got)
	for k, n := range wkeys {
		if gkeys[k] != n {
			t.Fatalf("row %q: unfused×%d fused×%d\nplan:\n%s\nsources:\n%v",
				k, n, gkeys[k], q.Explain(), rep.Sources)
		}
	}
}

func rowKeys(tbl *data.Table) map[string]int {
	out := map[string]int{}
	n := tbl.NumRows()
	for i := 0; i < n; i++ {
		k := ""
		for _, c := range tbl.Cols {
			k += c.Get(i).Key() + "|"
		}
		out[k]++
	}
	return out
}

func TestFuseScalarChain(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf, "SELECT id, upname(firstword(name)) FROM people")
	if rep.Sections == 0 {
		t.Fatalf("no sections fused; report %+v", rep)
	}
}

func TestFuseFilterOffload(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf,
		"SELECT n FROM (SELECT upname(firstword(name)) AS n, addten(age) AS a FROM people) AS s WHERE a > 40")
	if rep.Sections == 0 {
		t.Fatal("no sections fused")
	}
}

func TestFuseUDFInWhere(t *testing.T) {
	eng, qf := buildEngine(t)
	assertSameResult(t, eng, qf,
		"SELECT name FROM people WHERE addten(age) >= 55")
}

func TestFuseAggregateGroupBy(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf,
		"SELECT city, COUNT(*), SUM(addten(age)), strjoin(firstword(name)) FROM people GROUP BY city")
	if rep.Sections == 0 {
		t.Fatal("no sections fused")
	}
}

func TestFuseCaseSum(t *testing.T) {
	eng, qf := buildEngine(t)
	assertSameResult(t, eng, qf, `
SELECT city,
       SUM(CASE WHEN cleandate(joined) >= '2020-01-01' THEN 1 ELSE NULL END) AS recent,
       SUM(CASE WHEN cleandate(joined) < '2020-01-01' THEN 1 ELSE NULL END) AS old
FROM people GROUP BY city`)
}

func TestFuseExpand(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf,
		"SELECT id, explode(upname(name)) AS w FROM people")
	if rep.Sections == 0 {
		t.Fatal("no sections fused")
	}
}

func TestFuseExpandThenAggregate(t *testing.T) {
	eng, qf := buildEngine(t)
	assertSameResult(t, eng, qf,
		"SELECT w, COUNT(*) FROM (SELECT explode(name) AS w FROM people) AS x GROUP BY w")
}

func TestFuseComplexTypes(t *testing.T) {
	eng, qf := buildEngine(t)
	assertSameResult(t, eng, qf,
		"SELECT id, ntags(tags) FROM people WHERE ntags(tags) >= 1")
}

func TestFuseDistinct(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf,
		"SELECT DISTINCT upname(firstword(city)) FROM people")
	if rep.Sections == 0 {
		t.Fatal("the DISTINCT did not fuse")
	}
}

func TestFuseRunningExample(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf, `
WITH cleaned(id, city, day, word) AS (
    SELECT id, city, cleandate(joined), explode(upname(name))
    FROM people
)
SELECT city, COUNT(*),
       SUM(CASE WHEN day >= '2019-01-01' THEN 1 ELSE NULL END)
FROM cleaned
WHERE word != 'ZZZ'
GROUP BY city`)
	if rep.Sections == 0 {
		t.Fatal("no sections fused in the running example")
	}
}

// TestScalarOnlyModeYeSQL: scalar-chain fusion (the YeSQL mode) equals
// native, including relational operators inside a chain — integer
// division, a float's rendering and a truncated modulo are the engine's,
// not the UDF language's.
func TestScalarOnlyModeYeSQL(t *testing.T) {
	for _, sql := range []string{
		"SELECT upname(firstword(name)), addten(age) FROM people WHERE age > 20",
		"SELECT upname(firstword(name) || (age / 4)) FROM people",
		"SELECT upname(firstword(name) || (age * 1.0)) FROM people",
		"SELECT upname(firstword(name) || (-7 % 3)) FROM people",
	} {
		t.Run(sql, func(t *testing.T) {
			eng, qf := buildEngine(t)
			qf.Opts = core.Options{Fusion: true, ScalarOnly: true, Cache: true}
			rep := assertSameResult(t, eng, qf, sql)
			if rep.Sections == 0 {
				t.Fatal("scalar-only fused nothing")
			}
		})
	}
}

// TestExecDMLFusedUpdateMatchesNative: an UPDATE whose SET expression
// fuses into a scalar-chain wrapper writes exactly what the native
// UPDATE writes — integer division, and a CASE the binder makes float.
func TestExecDMLFusedUpdateMatchesNative(t *testing.T) {
	for _, upd := range []string{
		"UPDATE people SET name = upname(firstword(name) || (age / 4))",
		"UPDATE people SET name = upname(firstword(name) || CASE WHEN age > 30 THEN 1 ELSE 2.5 END)",
	} {
		t.Run(upd, func(t *testing.T) {
			nat, _ := buildEngine(t)
			if err := nat.Exec(upd); err != nil {
				t.Fatal(err)
			}
			eng, qf := buildEngine(t)
			if err := qf.ExecDML(eng, upd); err != nil {
				t.Fatal(err)
			}
			if qf.LastReport().Sections == 0 {
				t.Fatal("UPDATE fused nothing")
			}
			const sel = "SELECT id, name FROM people ORDER BY id"
			want, err := nat.Query(sel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query(sel)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < want.NumRows(); i++ {
				if w, g := want.Cols[1].Get(i).String(), got.Cols[1].Get(i).String(); w != g {
					t.Fatalf("row %d: native %q, fused %q", i, w, g)
				}
			}
		})
	}
}

// TestTableUDFBottomSection: a FROM-position table UDF is the source of
// its section's trace — one call per batch over an input generator —
// and the call it drives still runs on the VM, as any call with a
// program does: every row the source yields counts as a VM row.
func TestTableUDFBottomSection(t *testing.T) {
	eng, qf := buildEngine(t)
	sql := "SELECT upname(c0) FROM splitall((SELECT name FROM people))"
	rep := assertSameResult(t, eng, qf, sql)
	if rep.Sections != 1 {
		t.Fatalf("sections = %d, want 1", rep.Sections)
	}
	q, _, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	var u *ffi.UDF
	q.Root.Walk(func(p *sqlengine.Plan) {
		if p.UDF != nil && p.UDF.Name == rep.Wrappers[0] {
			u = p.UDF
		}
	})
	if u == nil || u.Trace() == nil || u.Trace().Source == nil {
		t.Fatalf("wrapper %s has no source-driven trace", rep.Wrappers[0])
	}
	if rep.Tiers[0] != core.TierVM {
		t.Fatalf("tier = %s, want vm", rep.Tiers[0])
	}
	vmRows := obs.Default.Counter("qfusor.vm.rows")
	before := vmRows.Value()
	if _, err := eng.Execute(q); err != nil {
		t.Fatal(err)
	}
	if vmRows.Value() == before {
		t.Fatal("the source-driven section counted no VM rows")
	}
}

// TestTableUDFBottomErrorNamesUDF: a table UDF that raises mid-stream
// fails the fused query with the Python exception, attributed to the
// table UDF rather than to the wrapper around it.
func TestTableUDFBottomErrorNamesUDF(t *testing.T) {
	eng, qf := buildEngine(t)
	q, rep, err := qf.Process(eng, "SELECT upname(c0) FROM splitboom((SELECT name FROM people))")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sections != 1 {
		t.Fatalf("sections = %d, want 1", rep.Sections)
	}
	_, err = eng.Execute(q)
	var pe *pylite.PyError
	if !errors.As(err, &pe) || pe.Type != "ValueError" {
		t.Fatalf("want a ValueError, got %v", err)
	}
	if !strings.Contains(err.Error(), "udf splitboom") {
		t.Fatalf("error does not name the table UDF: %v", err)
	}
}

func TestJITOnlyModeNoRewrite(t *testing.T) {
	eng, qf := buildEngine(t)
	qf.Opts = core.Options{Fusion: false}
	q, rep, err := qf.Process(eng, "SELECT upname(firstword(name)) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sections != 0 {
		t.Fatalf("JIT-only mode fused %d sections", rep.Sections)
	}
	if _, err := eng.Execute(q); err != nil {
		t.Fatal(err)
	}
}

func TestWrapperCacheHitsAcrossQueries(t *testing.T) {
	eng, qf := buildEngine(t)
	sql := "SELECT upname(firstword(name)) FROM people"
	if _, _, err := qf.Process(eng, sql); err != nil {
		t.Fatal(err)
	}
	before := len(qf.LastReport().Sources)
	if before == 0 {
		t.Fatal("first query fused nothing")
	}
	// Re-process: wrapper should come from the cache (no new source is
	// an implementation detail; at minimum it must still execute).
	q, _, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(q); err != nil {
		t.Fatal(err)
	}
}

// TestWrapperCacheKeys: the wrapper compile cache and the circuit
// breaker key a wrapper by what it computes. The same section twice is
// one wrapper; sections that differ only in a literal's value, in a
// literal's kind or in the UDF they call are distinct wrappers with
// distinct breaker keys — for sections and for scalar chains alike.
func TestWrapperCacheKeys(t *testing.T) {
	modes := []struct {
		name string
		opts core.Options
	}{
		{"sections", core.DefaultOptions()},
		{"scalar-chains", core.Options{Fusion: true, ScalarOnly: true, Cache: true}},
	}
	cases := []struct {
		name string
		a, b string
		same bool
	}{
		{"same query",
			"SELECT upname(firstword(name) || 'x') FROM people",
			"SELECT upname(firstword(name) || 'x') FROM people", true},
		{"literal value",
			"SELECT upname(firstword(name) || 'x') FROM people",
			"SELECT upname(firstword(name) || 'y') FROM people", false},
		{"literal kind",
			"SELECT upname(firstword(name) || (age * 1)) FROM people",
			"SELECT upname(firstword(name) || (age * 1.0)) FROM people", false},
		{"called UDF",
			"SELECT upname(firstword(name)) FROM people",
			"SELECT upname(cleandate(name)) FROM people", false},
	}
	for _, m := range modes {
		for _, c := range cases {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				eng, qf := buildEngine(t)
				qf.Opts = m.opts
				qf.Opts.PlanCache = false
				_, ra, err := qf.Process(eng, c.a)
				if err != nil {
					t.Fatal(err)
				}
				_, rb, err := qf.Process(eng, c.b)
				if err != nil {
					t.Fatal(err)
				}
				if len(ra.Wrappers) != 1 || len(rb.Wrappers) != 1 {
					t.Fatalf("wrappers %v and %v, want one each", ra.Wrappers, rb.Wrappers)
				}
				ka, kb := qf.BreakerKeysOf(ra.Wrappers), qf.BreakerKeysOf(rb.Wrappers)
				if len(ka) != 1 || len(kb) != 1 {
					t.Fatalf("breaker keys %v and %v, want one each", ka, kb)
				}
				if got := ra.Wrappers[0] == rb.Wrappers[0]; got != c.same {
					t.Fatalf("same wrapper = %v, want %v (%s vs %s)", got, c.same, ra.Wrappers[0], rb.Wrappers[0])
				}
				if got := ka[0] == kb[0]; got != c.same {
					t.Fatalf("same breaker key = %v, want %v (%s vs %s)", got, c.same, ka[0], kb[0])
				}
				if hit := rb.CacheHits == 1; hit != c.same {
					t.Fatalf("second query cache hits = %d, want hit=%v", rb.CacheHits, c.same)
				}
			})
		}
	}
}

func TestReportTimingsPopulated(t *testing.T) {
	eng, qf := buildEngine(t)
	_, rep, err := qf.Process(eng, "SELECT upname(firstword(name)) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FusOptim <= 0 || rep.CodeGen < 0 {
		t.Fatalf("timings not recorded: %+v", rep)
	}
}

// TestFusedAcrossEngineModes runs one fused query on the columnar
// executor, on it with every input split at DuckDB's vector size
// ("chunked"), and on the row executor.
func TestFusedAcrossEngineModes(t *testing.T) {
	for _, x := range []struct {
		name   string
		mode   sqlengine.ExecMode
		morsel int
	}{{"columnar", sqlengine.ModeColumnar, 0}, {"chunked", sqlengine.ModeColumnar, 2048}, {"row", sqlengine.ModeRow, 0}} {
		t.Run(x.name, func(t *testing.T) {
			eng, qf := buildEngine(t)
			eng.Mode, eng.MorselSize = x.mode, x.morsel
			assertSameResult(t, eng, qf,
				"SELECT city, SUM(addten(age)) FROM people WHERE upname(city) != 'XXX' GROUP BY city")
		})
	}
}

// TestFusedFilterBeforeGroupBy guards the subtle semantics of fusing a
// filter below a group-by: groups whose rows are all filtered out must
// not appear in the output (grouping happens inside the trace, after
// the fused filter).
func TestFusedFilterBeforeGroupBy(t *testing.T) {
	eng, qf := buildEngine(t)
	// addten(age) > 55 keeps only Eve (52+10): athens (44, 55) and
	// paris (29, 51) are filtered out entirely and must produce no
	// groups.
	sql := `
SELECT city, COUNT(*) AS n
FROM (SELECT city, addten(age) AS a FROM people) AS x
WHERE a > 55
GROUP BY city`
	rep := assertSameResult(t, eng, qf, sql)
	if rep.Sections == 0 {
		t.Fatal("filter+group section not fused")
	}
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[0].Get(0).String() != "berlin" {
		t.Fatalf("want only group berlin, got %d rows", res.NumRows())
	}
}

// TestProfilerSeedsColdUDFs: probing fills the stats dictionary so the
// cost model starts from measured values (§5.2.2).
func TestProfilerSeedsColdUDFs(t *testing.T) {
	eng, _ := buildEngine(t)
	var cold int
	for _, u := range eng.Catalog.UDFs() {
		if u.Stats.InRows.Load() == 0 {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("fixture has no cold UDFs")
	}
	p := core.NewProfiler()
	probed := p.ProfileColdUDFs(eng, "people")
	if probed == 0 {
		t.Fatal("profiler probed nothing")
	}
	warmed := 0
	for _, u := range eng.Catalog.UDFs() {
		if u.Stats.InRows.Load() > 0 {
			warmed++
			if u.Stats.NanosPerRow() <= 0 {
				t.Errorf("udf %s probed but has no cost", u.Name)
			}
		}
	}
	if warmed < probed {
		t.Fatalf("probed %d but only %d have stats", probed, warmed)
	}
}

// TestCostBucketsRoundTrip: bucketing is monotone and reversible to the
// right half-decade.
func TestCostBucketsRoundTrip(t *testing.T) {
	prev := -1
	for _, c := range []float64{50, 200, 900, 4000, 20000} {
		b := core.CostBucket(c)
		if b <= prev {
			t.Fatalf("buckets not monotone at %v", c)
		}
		prev = b
		back := core.BucketedCost(b)
		if back < c/4 || back > c*4 {
			t.Fatalf("bucket %d of %v maps back to %v", b, c, back)
		}
	}
}

// TestOptionMatrixParity: every ablation configuration must preserve
// results on a query exercising all fusion cases.
func TestOptionMatrixParity(t *testing.T) {
	sql := `
SELECT city, COUNT(*) AS n, SUM(addten(age)) AS s
FROM (SELECT city, age, explode(upname(name)) AS w FROM people WHERE ntags(tags) >= 0) AS x
WHERE w != 'XYZZY'
GROUP BY city`
	configs := []core.Options{
		{Fusion: false},
		{Fusion: true},
		{Fusion: true, ScalarOnly: true},
		{Fusion: true, Offload: true},
		{Fusion: true, Offload: true, Reorder: true},
		{Fusion: true, Offload: true, Reorder: true, AggFusion: true},
		{Fusion: true, Offload: true, Reorder: true, AggFusion: true, Cache: true},
	}
	eng, qf := buildEngine(t)
	want, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	wk := rowKeys(want)
	for i, opts := range configs {
		qf.Opts = opts
		q, _, err := qf.Process(eng, sql)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		got, err := eng.Execute(q)
		if err != nil {
			t.Fatalf("config %d exec: %v", i, err)
		}
		gk := rowKeys(got)
		for k, n := range wk {
			if gk[k] != n {
				t.Fatalf("config %+v: row %q %d vs %d", opts, k, n, gk[k])
			}
		}
	}
}

// TestParallelFusedAggMatchesSerial: partial aggregation + merge across
// workers equals the single-shot result.
func TestParallelFusedAggMatchesSerial(t *testing.T) {
	sql := `
SELECT city, COUNT(*) AS n, SUM(addten(age)) AS s
FROM (SELECT city, age, addten(age) AS a FROM people) AS x
WHERE a > 25
GROUP BY city`
	serialEng, serialQF := buildEngine(t)
	parEng, parQF := buildEngine(t)
	parEng.Parallelism = 3
	// Enough rows that the parallel partial-aggregation path engages.
	for _, eng := range []*sqlengine.Engine{serialEng, parEng} {
		for i := 0; i < 40; i++ {
			stmt := fmt.Sprintf("INSERT INTO people VALUES (%d, 'P%d Q%d', %d, 'city%d', '2020/1/%d', '[]')",
				100+i, i, i, 18+i%50, i%5, 1+i%28)
			if err := eng.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := serialQF.Query(serialEng, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parQF.Query(parEng, sql)
	if err != nil {
		t.Fatal(err)
	}
	wk, gk := rowKeys(want), rowKeys(got)
	if len(wk) != len(gk) {
		t.Fatalf("groups %d vs %d", len(wk), len(gk))
	}
	for k, n := range wk {
		if gk[k] != n {
			t.Fatalf("row %q: %d vs %d", k, n, gk[k])
		}
	}
}

// TestHeuristicColdStartFusion: with no statistics, the §5.2.4 rules
// fuse UDF chains (the rule-based engine / cold-start path).
func TestHeuristicColdStartFusion(t *testing.T) {
	eng, qf := buildEngine(t)
	// Fresh engine, no query has run — every UDF is cold.
	rep := assertSameResult(t, eng, qf, "SELECT upname(firstword(name)) FROM people")
	if rep.Sections == 0 {
		t.Fatal("cold-start heuristics fused nothing")
	}
	// A DISTINCT is a group-by, which the heuristic always fuses.
	eng2, qf2 := buildEngine(t)
	assertSameResult(t, eng2, qf2, "SELECT DISTINCT upname(city) FROM people")
}
