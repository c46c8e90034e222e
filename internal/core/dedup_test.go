package core_test

import (
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/sqlengine"
)

// addBig adds table big: 4 000 rows over 4 distinct cities, enough for
// two of the engine's default morsels.
func addBig(t *testing.T, eng *sqlengine.Engine) {
	t.Helper()
	big := data.NewTable("big", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "city", Kind: data.KindString},
	})
	cities := []string{"athens north", "berlin east", "paris south", "rome west"}
	for i := 0; i < 4000; i++ {
		if err := big.AppendRow(data.Int(int64(i)), data.Str(cities[i%len(cities)])); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog.PutTable(big)
}

// fusedAggs returns the plan's FusedAgg nodes.
func fusedAggs(q *sqlengine.Query) []*sqlengine.Plan {
	var out []*sqlengine.Plan
	q.Root.Walk(func(p *sqlengine.Plan) {
		if p.Op == sqlengine.OpFusedAgg {
			out = append(out, p)
		}
	})
	return out
}

// TestExpandAboveDistinct: a DISTINCT is a group-by, so the expand UDF
// above it starts a section of its own and every row it yields is kept.
func TestExpandAboveDistinct(t *testing.T) {
	eng, qf := buildEngine(t)
	rep := assertSameResult(t, eng, qf,
		"SELECT explode(n) AS w FROM (SELECT DISTINCT upname(name) AS n FROM people) AS s")
	for _, src := range rep.Sources {
		if strings.Contains(src, "seen") {
			t.Fatalf("a wrapper dedups:\n%s", src)
		}
	}
}

// TestDistinctPath1Parallel: path 1 re-submits a fused DISTINCT as a
// GROUP BY over its wrapper called by name, which a parallel engine
// splits into morsels; the result still has each value once.
func TestDistinctPath1Parallel(t *testing.T) {
	eng, qf := buildEngine(t)
	addBig(t, eng)
	eng.Parallelism = 4
	const sql = "SELECT DISTINCT upname(firstword(city)) AS c FROM big"
	want, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	out, executable, err := qf.RewriteSQL(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !executable {
		t.Fatalf("path 1 SQL is display-only:\n%s", out)
	}
	got, err := eng.Query(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if want.NumRows() != 4 || got.NumRows() != want.NumRows() {
		t.Fatalf("native %d rows, path 1 %d rows:\n%s", want.NumRows(), got.NumRows(), out)
	}
}
