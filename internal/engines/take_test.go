package engines_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/engines"
)

// takeLib's tinc keeps a loop, so it stays a UDF call (it is never
// inlined); ttotal and tlen are UDF aggregates.
const takeLib = `
@scalarudf
def tinc(x: int) -> int:
    if x is None:
        return None
    for _ in range(1):
        x = x + 1
    return x

@aggregateudf
class ttotal:
    def init(self):
        self.n = 0
    def step(self, v):
        if v is None:
            return
        self.n = self.n + v
    def final(self):
        return self.n

@aggregateudf
class tlen:
    def init(self):
        self.n = 0
    def step(self, s):
        if s is None:
            return
        self.n = self.n + len(s)
    def final(self):
        return self.n
`

// takeTables: a fact table f whose join keys k (int) and x (float) hold
// NULLs, NaNs and values no row of d has, and a dimension d whose keys
// repeat (some f rows pair twice) and hold NULLs and NaNs too.
func takeTables() []*data.Table {
	f := data.NewTable("f", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "x", Kind: data.KindFloat},
		{Name: "n", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 2100; i++ {
		k, x, n := data.Int(int64(i*7%60)), data.Float(float64(i%13)/4), data.Int(int64(i%97-20))
		switch {
		case i%31 == 0:
			k = data.Null
		case i%17 == 0:
			x = data.Float(math.NaN())
		case i%23 == 0:
			x, n = data.Null, data.Null
		}
		_ = f.AppendRow(k, x, n, data.Str(fmt.Sprintf("s%d", i%11)))
	}
	d := data.NewTable("d", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "fx", Kind: data.KindFloat},
		{Name: "w", Kind: data.KindInt}, {Name: "label", Kind: data.KindString}})
	for i := 0; i < 60; i++ {
		k, fx := data.Int(int64(i%45)), data.Float(float64(i%9)/4)
		switch {
		case i%19 == 0:
			k = data.Null
		case i%7 == 0:
			fx = data.Float(math.NaN())
		}
		_ = d.AppendRow(k, fx, data.Int(int64(i%5)), data.Str(fmt.Sprintf("g%d", i%6)))
	}
	return []*data.Table{f, d}
}

// TestTakeMatchesMaterialized: a filter or a join hands its parent row
// lists, which an aggregate, a projection or a join's probe side reads
// through. Each such shape answers what the same query answers with the
// operator's output in a CTE, which is always materialized, on every
// executor profile, serial and parallel, at one-row, seven-row and
// default-size morsels; and what the first of those configurations
// (MonetDB, serial, one morsel) answers, so a fault in how a filter or a
// join chooses its rows, which both spellings share, shows too.
func TestTakeMatchesMaterialized(t *testing.T) {
	type shape struct {
		name, sql, cte string
		fused          bool // through the QFusor pipeline, with a fused aggregate
	}
	shapes := []shape{
		{name: "inner join under GROUP BY",
			sql: "SELECT d.label, COUNT(*) AS c, SUM(f.n) AS sn, MIN(f.s) AS lo FROM f JOIN d ON f.k = d.k GROUP BY d.label",
			cte: "WITH j AS (SELECT d.label AS label, f.n AS n, f.s AS s FROM f JOIN d ON f.k = d.k) SELECT label, COUNT(*) AS c, SUM(n) AS sn, MIN(s) AS lo FROM j GROUP BY label"},
		{name: "left join, NULL-padded right columns",
			sql: "SELECT d.label, COUNT(*) AS c, SUM(d.w) AS sw, SUM(f.n) AS sn FROM f LEFT JOIN d ON f.k = d.k GROUP BY d.label",
			cte: "WITH j AS (SELECT d.label AS label, d.w AS w, f.n AS n FROM f LEFT JOIN d ON f.k = d.k) SELECT label, COUNT(*) AS c, SUM(w) AS sw, SUM(n) AS sn FROM j GROUP BY label"},
		{name: "left join, one side read",
			sql: "SELECT SUM(d.w) AS sw, COUNT(*) AS c FROM f LEFT JOIN d ON f.k = d.k",
			cte: "WITH j AS (SELECT d.w AS w FROM f LEFT JOIN d ON f.k = d.k) SELECT SUM(w) AS sw, COUNT(*) AS c FROM j"},
		{name: "left join, only the left side read",
			sql: "SELECT SUM(f.n) AS sn, COUNT(*) AS c FROM f LEFT JOIN d ON f.k = d.k",
			cte: "WITH j AS (SELECT f.n AS n FROM f LEFT JOIN d ON f.k = d.k) SELECT SUM(n) AS sn, COUNT(*) AS c FROM j"},
		{name: "residual predicate",
			sql: "SELECT d.label, COUNT(*) AS c, SUM(f.n * d.w) AS p FROM f JOIN d ON f.k = d.k AND f.n > d.w GROUP BY d.label",
			cte: "WITH j AS (SELECT d.label AS label, f.n AS n, d.w AS w FROM f JOIN d ON f.k = d.k AND f.n > d.w) SELECT label, COUNT(*) AS c, SUM(n * w) AS p FROM j GROUP BY label"},
		{name: "NULL and NaN keys",
			sql: "SELECT f.x, COUNT(*) AS c, SUM(d.w) AS sw FROM f JOIN d ON f.x = d.fx GROUP BY f.x",
			cte: "WITH j AS (SELECT f.x AS x, d.w AS w FROM f JOIN d ON f.x = d.fx) SELECT x, COUNT(*) AS c, SUM(w) AS sw FROM j GROUP BY x"},
		{name: "filter under the probe side",
			sql: "SELECT d.label, COUNT(*) AS c, SUM(d.w) AS sw FROM f JOIN d ON f.k = d.k WHERE f.x > 1 GROUP BY d.label",
			cte: "WITH w AS (SELECT * FROM f WHERE f.x > 1) SELECT d.label, COUNT(*) AS c, SUM(d.w) AS sw FROM w JOIN d ON w.k = d.k GROUP BY d.label"},
		{name: "filter under a left join's probe side",
			sql: "SELECT d.label, COUNT(*) AS c, SUM(f.n) AS sn, SUM(d.w) AS sw FROM f LEFT JOIN d ON f.k = d.k AND f.n < d.w + 40 WHERE f.x < 2 GROUP BY d.label",
			cte: "WITH w AS (SELECT * FROM f WHERE f.x < 2) SELECT d.label, COUNT(*) AS c, SUM(w.n) AS sn, SUM(d.w) AS sw FROM w LEFT JOIN d ON w.k = d.k AND w.n < d.w + 40 GROUP BY d.label"},
		{name: "UDF aggregate over a join",
			sql: "SELECT d.label, ttotal(f.n) AS t, tlen(f.s || d.label) AS u FROM f JOIN d ON f.k = d.k GROUP BY d.label",
			cte: "WITH j AS (SELECT d.label AS label, f.n AS n, f.s AS s FROM f JOIN d ON f.k = d.k) SELECT label, ttotal(n) AS t, tlen(s || label) AS u FROM j GROUP BY label"},
		{name: "fused aggregate over a join", fused: true,
			sql: "SELECT d.label, SUM(tinc(tinc(f.n))) AS s, COUNT(*) AS c FROM f JOIN d ON f.k = d.k GROUP BY d.label",
			cte: "WITH j AS (SELECT d.label AS label, f.n AS n FROM f JOIN d ON f.k = d.k) SELECT label, SUM(tinc(tinc(n))) AS s, COUNT(*) AS c FROM j GROUP BY label"},
		{name: "projection over a left join",
			sql: "SELECT f.n, d.label, f.n + d.w AS t, f.s FROM f LEFT JOIN d ON f.k = d.k",
			cte: "WITH j AS (SELECT f.n AS n, d.label AS label, d.w AS w, f.s AS s FROM f LEFT JOIN d ON f.k = d.k) SELECT n, label, n + w AS t, s FROM j"},
		{name: "aggregate over a filter",
			sql: "SELECT s, COUNT(*) AS c, SUM(n) AS sn, MAX(x) AS mx FROM f WHERE x > 0.5 GROUP BY s",
			cte: "WITH w AS (SELECT * FROM f WHERE x > 0.5) SELECT s, COUNT(*) AS c, SUM(n) AS sn, MAX(x) AS mx FROM w GROUP BY s"},
		{name: "projection over a filter",
			sql: "SELECT k, s, n * 2 + 1 AS m, x AS y FROM f WHERE x > 0.5 OR n < 0",
			cte: "WITH w AS (SELECT * FROM f WHERE x > 0.5 OR n < 0) SELECT k, s, n * 2 + 1 AS m, x AS y FROM w"},
		{name: "cast to its own kind over a filter",
			sql: "SELECT CAST(n AS INT) AS m, s FROM f WHERE x > 0.5",
			cte: "WITH w AS (SELECT * FROM f WHERE x > 0.5) SELECT CAST(n AS INT) AS m, s FROM w"},
		{name: "cast to its own kind over a join",
			sql: "SELECT CAST(f.n AS INT) AS m, d.label FROM f JOIN d ON f.k = d.k",
			cte: "WITH j AS (SELECT f.n AS n, d.label AS label FROM f JOIN d ON f.k = d.k) SELECT CAST(n AS INT) AS m, label FROM j"},
		{name: "projection calling a UDF over a filter",
			sql: "SELECT k, s, tinc(n) AS u FROM f WHERE x > 0.5",
			cte: "WITH w AS (SELECT * FROM f WHERE x > 0.5) SELECT k, s, tinc(n) AS u FROM w"},
		{name: "projection over a filter calling a UDF",
			sql: "SELECT k, s, n + 1 AS m FROM f WHERE tinc(n) > 20",
			cte: "WITH w AS (SELECT * FROM f WHERE tinc(n) > 20) SELECT k, s, n + 1 AS m FROM w"},
	}
	ref := map[string][]string{} // shape -> the first configuration's answer
	for _, prof := range []engines.Profile{engines.Monet, engines.SQLite, engines.Postgres, engines.Duck} {
		for _, par := range []int{1, 8} {
			for _, morsel := range []int{2048, 1, 7} {
				cfg := fmt.Sprintf("%s p%d m%d", prof, par, morsel)
				in := engines.Launch(engines.Config{Profile: prof, JIT: true, Parallelism: par, MorselSize: morsel})
				if err := in.Define(takeLib); err != nil {
					t.Fatal(err)
				}
				for _, tb := range takeTables() {
					in.Put(tb)
				}
				for _, c := range shapes {
					answers := make([][]string, 2)
					for i, sql := range []string{c.sql, c.cte} {
						var (
							res *data.Table
							err error
						)
						if c.fused {
							res, err = fusedArm(in, sql, true)
						} else {
							res, err = in.Query(sql)
						}
						if err != nil {
							t.Fatalf("%s: %s: %s: %v", cfg, c.name, sql, err)
						}
						answers[i] = rowSet(res)
					}
					if len(answers[0]) == 0 {
						t.Fatalf("%s: %s: no rows", cfg, c.name)
					}
					if !slices.Equal(answers[0], answers[1]) {
						t.Errorf("%s: %s answered\n%s\nover a CTE\n%s", cfg, c.name,
							strings.Join(answers[0], "\n"), strings.Join(answers[1], "\n"))
					}
					if want, ok := ref[c.name]; !ok {
						ref[c.name] = answers[0]
					} else if !slices.Equal(answers[0], want) {
						t.Errorf("%s: %s answered\n%s\nserially on monetdb\n%s", cfg, c.name,
							strings.Join(answers[0], "\n"), strings.Join(want, "\n"))
					}
				}
				in.Close()
			}
		}
	}
}
