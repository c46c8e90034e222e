package engines

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
)

func render(t *data.Table) string {
	var b strings.Builder
	for i := 0; i < t.NumRows(); i++ {
		for _, c := range t.Cols {
			fmt.Fprintf(&b, "%s|", c.Get(i).Repr())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBigIntAgreementAcrossProfiles: int arithmetic, comparison and
// equality are exact int64 in every evaluator — the row executor's
// evalRow, the columnar generic instruction and the typed kernels — so
// values above 2^53 answer the same on every profile and parallelism.
func TestBigIntAgreementAcrossProfiles(t *testing.T) {
	const big = int64(1)<<53 + 1
	tbl := data.NewTable("t", data.Schema{{Name: "id", Kind: data.KindInt}, {Name: "x", Kind: data.KindInt}})
	for i, x := range []data.Value{data.Int(big), data.Int(-big), data.Int(math.MaxInt64 - 1), data.Int(7), data.Null} {
		_ = tbl.AppendRow(data.Int(int64(i)), x)
	}
	for i := 5; i < 600; i++ { // enough rows for Parallelism 8 to split into morsels
		_ = tbl.AppendRow(data.Int(int64(i)), data.Int(7))
	}
	cases := []struct{ sql, want string }{
		{"SELECT x + 1 AS v FROM t WHERE id < 5 ORDER BY id",
			fmt.Sprintf("%d|\n%d|\n%d|\n8|\nNone|\n", big+1, -big+1, int64(math.MaxInt64))},
		{"SELECT x * 1 AS v FROM t WHERE id < 5 ORDER BY id",
			fmt.Sprintf("%d|\n%d|\n%d|\n7|\nNone|\n", big, -big, int64(math.MaxInt64-1))},
		{"SELECT id FROM t WHERE x + 1 > 9007199254740993 ORDER BY id", "0|\n2|\n"},
		{"SELECT id FROM t WHERE NOT (x > 9007199254740992) AND id < 5 ORDER BY id", "1|\n3|\n4|\n"},
		{"SELECT id FROM t WHERE x = 9007199254740992 OR x IN (9007199254740992, -9007199254740992) ORDER BY id", ""},
		// A float upper bound must not make the int lower bound compare
		// through float64 (2^53 is below 2^53+1).
		{"SELECT id FROM t WHERE x - 1 BETWEEN 9007199254740993 AND 1e300 ORDER BY id", "2|\n"},
		{"SELECT id FROM t WHERE x - 1 NOT BETWEEN 9007199254740993 AND 1e300 AND id < 5 ORDER BY id", "0|\n1|\n3|\n"},
	}
	for _, prof := range []Profile{Monet, SQLite, Postgres, Duck} {
		for _, par := range []int{1, 8} {
			in := Launch(Config{Profile: prof, Parallelism: par, MorselSize: 64})
			in.Put(tbl)
			for _, c := range cases {
				res, err := in.Query(c.sql)
				if err != nil {
					t.Fatalf("%s par=%d %s: %v", prof, par, c.sql, err)
				}
				if got := render(res); got != c.want {
					t.Errorf("%s par=%d %s:\ngot:\n%swant:\n%s", prof, par, c.sql, got, c.want)
				}
			}
			in.Close()
		}
	}
}

// mixedTable is m(id, x, f): x = -4..5, f = 0.5, 1.5, ..., 9.5.
func mixedTable() *data.Table {
	tbl := data.NewTable("m", data.Schema{{Name: "id", Kind: data.KindInt},
		{Name: "x", Kind: data.KindInt}, {Name: "f", Kind: data.KindFloat}})
	for i := 0; i < 10; i++ {
		_ = tbl.AppendRow(data.Int(int64(i)), data.Int(int64(i-4)), data.Float(float64(i)+0.5))
	}
	return tbl
}

// TestMixedKindCaseAcrossProfiles: every expression has the one kind the
// binder gives it, on every profile and parallelism. A CASE, COALESCE or
// UNION whose branches are int and float is float, so the aggregate,
// group key or sort key that reads it sees every row as a float; a bool
// meeting an int is an int; a NULL branch or arm takes the other's kind;
// arithmetic over a string is float, NULL where the string is not a
// number. Statements the binder cannot type are typed errors, not panics.
func TestMixedKindCaseAcrossProfiles(t *testing.T) {
	strs := data.NewTable("t2", data.Schema{{Name: "id", Kind: data.KindInt},
		{Name: "s", Kind: data.KindString}, {Name: "flag", Kind: data.KindBool}})
	_ = strs.AppendRow(data.Int(0), data.Str("3"), data.Bool(true))
	_ = strs.AppendRow(data.Int(1), data.Null, data.Bool(false))
	_ = strs.AppendRow(data.Int(2), data.Str("2.5"), data.Bool(true))
	_ = strs.AppendRow(data.Int(3), data.Str("abc"), data.Bool(false))
	_ = strs.AppendRow(data.Int(4), data.Str(" 3"), data.Null)
	cases := []struct{ sql, want string }{
		{"SELECT SUM(CASE WHEN x > 0 THEN 0 ELSE f END) AS v FROM m", "12.5|\n"},
		{"SELECT SUM(CASE WHEN x > 0 THEN 1 ELSE 2.5 END) AS v FROM m", "17.5|\n"},
		{"SELECT AVG(CASE WHEN x > 0 THEN 1 ELSE f END) AS v FROM m", "1.75|\n"},
		{"SELECT MEDIAN(CASE WHEN x > 3 THEN 1 ELSE f END) AS v FROM m", "3.0|\n"},
		{"SELECT MAX(CASE WHEN x > 0 THEN 1 ELSE f END * 2) AS v FROM m", "9.0|\n"},
		{"SELECT COUNT(*) AS c FROM m GROUP BY CASE WHEN x > 0 THEN 0 ELSE f END ORDER BY c", "1|\n1|\n1|\n1|\n1|\n5|\n"},
		{"SELECT CASE WHEN x > 0 THEN 0 ELSE f END AS k, COUNT(*) AS c FROM m GROUP BY k ORDER BY k",
			"0.0|5|\n0.5|1|\n1.5|1|\n2.5|1|\n3.5|1|\n4.5|1|\n"},
		{"SELECT CASE WHEN x > 0 THEN 1 ELSE f END AS v FROM m ORDER BY id",
			"0.5|\n1.5|\n2.5|\n3.5|\n4.5|\n1.0|\n1.0|\n1.0|\n1.0|\n1.0|\n"},
		{"SELECT COALESCE(NULL, x, f) AS v FROM m WHERE id < 3 ORDER BY id", "-4.0|\n-3.0|\n-2.0|\n"},
		{"SELECT x AS v FROM m WHERE id < 2 UNION ALL SELECT f FROM m WHERE id < 2 ORDER BY 1", "-4.0|\n-3.0|\n0.5|\n1.5|\n"},
		{"SELECT id FROM m WHERE id < 4 ORDER BY CASE WHEN x > -2 THEN 1 ELSE f / 10 END, id DESC", "0|\n1|\n2|\n3|\n"},
		{"SELECT s + 1 AS v FROM t2 ORDER BY id", "4.0|\nNone|\n3.5|\nNone|\nNone|\n"},
		{"SELECT -s AS v FROM t2 ORDER BY id", "-3.0|\nNone|\n-2.5|\nNone|\nNone|\n"},
		{"SELECT CASE WHEN id > 1 THEN flag ELSE 0 END AS v FROM t2 ORDER BY id", "0|\n0|\n1|\n0|\nNone|\n"},
		{"SELECT COALESCE(flag, 2) AS v FROM t2 ORDER BY id", "1|\n0|\n1|\n0|\n2|\n"},
		{"SELECT flag AS v FROM t2 WHERE id < 2 UNION ALL SELECT id FROM t2 WHERE id > 3 ORDER BY 1", "0|\n1|\n4|\n"},
		{"SELECT x AS v FROM m WHERE id < 2 UNION ALL SELECT NULL FROM m WHERE id < 1", "-4|\n-3|\nNone|\n"},
		{"WITH z AS (SELECT NULL AS v FROM m) SELECT SUM(v) AS t FROM z", "None|\n"},
	}
	bad := []string{
		"SELECT id FROM m ORDER BY 5",
		"SELECT id FROM m ORDER BY 0",
		"SELECT id FROM m ORDER BY -1",
		"SELECT SUM(s) FROM t2",
		"SELECT AVG(s || 'x') FROM t2",
	}
	for _, prof := range []Profile{Monet, SQLite, Postgres, Duck} {
		for _, par := range []int{1, 8} {
			in := Launch(Config{Profile: prof, Parallelism: par, MorselSize: 3})
			in.Put(mixedTable())
			in.Put(strs)
			for _, c := range cases {
				res, err := in.Query(c.sql)
				if err != nil {
					t.Fatalf("%s par=%d %s: %v", prof, par, c.sql, err)
				}
				if got := render(res); got != c.want {
					t.Errorf("%s par=%d %s:\ngot:\n%swant:\n%s", prof, par, c.sql, got, c.want)
				}
			}
			for _, sql := range bad {
				var be *sqlengine.BindError
				if _, err := in.Query(sql); !errors.As(err, &be) {
					t.Errorf("%s par=%d %s: got %v, want a bind error", prof, par, sql, err)
				}
			}
			in.Close()
		}
	}
}

// TestUDFDeclaredKindAcrossProfiles: a scalar UDF's value has the kind
// it declares, whatever its body returns, on every profile: the row
// executor's in-process call converts it as the other transports'
// result columns do.
func TestUDFDeclaredKindAcrossProfiles(t *testing.T) {
	const lib = `
@scalarudf
def half(x: int) -> float:
    return x // 2

@scalarudf
def third(x: int) -> int:
    return x / 3
`
	ids := data.NewTable("ids", data.Schema{{Name: "id", Kind: data.KindInt}})
	for i := 0; i < 5; i++ {
		_ = ids.AppendRow(data.Int(int64(i)))
	}
	cases := []struct{ sql, want string }{
		{"SELECT half(id) / 4 AS v FROM ids ORDER BY id", "0.0|\n0.0|\n0.25|\n0.25|\n0.5|\n"},
		{"SELECT third(id) * 3 AS v FROM ids ORDER BY id", "0|\n0|\n0|\n3|\n3|\n"},
		{"SELECT COUNT(*) AS c FROM ids WHERE third(id) = 1", "2|\n"},
	}
	for _, prof := range []Profile{Monet, SQLite, Postgres, Duck} {
		in := Launch(Config{Profile: prof})
		if err := in.Define(lib); err != nil {
			t.Fatal(err)
		}
		in.Put(ids)
		for _, c := range cases {
			res, err := in.Query(c.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", prof, c.sql, err)
			}
			if got := render(res); got != c.want {
				t.Errorf("%s %s:\ngot:\n%swant:\n%s", prof, c.sql, got, c.want)
			}
		}
		in.Close()
	}
}

// The benchmark's inline_relational UDFs: straight-line bodies the
// relational inliner turns into engine expressions.
const inlineLib = `
@scalarudf
def sboost(x: int) -> int:
    if x is None:
        return None
    return (x * 37 + 11) * 3 - x

@scalarudf
def fscale(x: float) -> float:
    if x is None:
        return None
    return x * 1.5 + 0.25

@scalarudf
def bucket(x: int) -> int:
    if x is None:
        return None
    if x < 100:
        return 0
    if x < 1000:
        return 1
    return 2
`

// inlineDB is a serial Monet instance pinned to the inlined tier over a
// 20 000-row table shaped like the benchmark's `big`.
func inlineDB(t *testing.T) *Instance {
	t.Helper()
	in := Launch(Config{Profile: Monet, Parallelism: 1, JIT: true, Tier: "inline"})
	if err := in.Define(inlineLib); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	big := data.NewTable("big", data.Schema{{Name: "n", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 20_000; i++ {
		n := data.Int(int64(r.Intn(5000)))
		if r.Intn(100) == 0 {
			n = data.Null
		}
		_ = big.AppendRow(n, data.Float(float64(r.Intn(1_000_000))/1000), data.Str(fmt.Sprintf("g%02d", r.Intn(16))))
	}
	in.Put(big)
	return in
}

// TestInlinedExpressionAllocatesColumns: an inlined expression tree runs
// on typed columns — a few slices per instruction — not on boxed
// 56-byte values per row per node.
func TestInlinedExpressionAllocatesColumns(t *testing.T) {
	in := inlineDB(t)
	defer in.Close()
	const sql = "SELECT SUM(CASE WHEN fscale(f) > 755 THEN sboost(n) ELSE 0 END) AS v FROM big"
	q, _, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.HasUDF(in.Eng.Catalog) {
		t.Fatalf("query was not inlined:\n%s", q.Explain())
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := in.Eng.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / 20_000
	t.Logf("%.1f B/row", perRow)
	if perRow >= 100 {
		t.Errorf("inlined CASE over 20 000 rows allocates %.0f B/row, want < 100", perRow)
	}
}

// TestInlinedQueryCrossesNoBoundary: with every UDF inlined nothing
// crosses the FFI — no calls, and no bytes boxed in or out, string group
// keys and outputs included.
func TestInlinedQueryCrossesNoBoundary(t *testing.T) {
	in := inlineDB(t)
	defer in.Close()
	counters := []string{"ffi.boundary.bytes_in", "ffi.boundary.bytes_out", "ffi.udf.calls"}
	before := make([]int64, len(counters))
	for i, name := range counters {
		before[i] = obs.Default.Counter(name).Value()
	}
	res, err := in.QueryFused("SELECT s, bucket(n) AS b, SUM(sboost(n)) AS v FROM big WHERE fscale(f) > 100 GROUP BY s, bucket(n)")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("empty result")
	}
	for i, name := range counters {
		if d := obs.Default.Counter(name).Value() - before[i]; d != 0 {
			t.Errorf("%s moved by %d on a fully inlined query", name, d)
		}
	}
}
