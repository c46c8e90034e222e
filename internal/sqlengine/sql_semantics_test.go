package sqlengine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// plainEngine builds an engine without UDFs for semantics tests.
func plainEngine(t *testing.T, mode sqlengine.ExecMode) *sqlengine.Engine {
	t.Helper()
	eng := sqlengine.New("sem", mode, ffi.VectorInvoker{}, 0)
	nums := data.NewTable("nums", data.Schema{
		{Name: "i", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat},
		{Name: "s", Kind: data.KindString},
	})
	rows := []struct {
		i int64
		f float64
		s string
	}{
		{1, 1.5, "alpha"}, {2, -2.25, "Beta"}, {3, 0, "gamma"},
		{4, 10, "delta%"}, {5, 3.5, ""},
	}
	for _, r := range rows {
		_ = nums.AppendRow(data.Int(r.i), data.Float(r.f), data.Str(r.s))
	}
	// A row with NULLs.
	_ = nums.AppendRow(data.Null, data.Null, data.Null)
	eng.Catalog.PutTable(nums)
	return eng
}

func q1col(t *testing.T, eng *sqlengine.Engine, sql string) []data.Value {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]data.Value, res.NumRows())
	for i := range out {
		out[i] = res.Cols[0].Get(i)
	}
	return out
}

func TestNullPropagation(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT i + 1 FROM nums ORDER BY i")
	// NULL row sorts first; NULL + 1 must stay NULL.
	if !vs[0].IsNull() {
		t.Fatalf("NULL+1 = %v", vs[0])
	}
	vs = q1col(t, eng, "SELECT COUNT(i) FROM nums")
	if vs[0].I != 5 {
		t.Fatalf("COUNT(i) = %v, want 5 (NULLs excluded)", vs[0])
	}
	vs = q1col(t, eng, "SELECT COUNT(*) FROM nums")
	if vs[0].I != 6 {
		t.Fatalf("COUNT(*) = %v, want 6", vs[0])
	}
	vs = q1col(t, eng, "SELECT i FROM nums WHERE i > 0 ORDER BY i")
	if len(vs) != 5 {
		t.Fatalf("NULL > 0 kept the row: %v", vs)
	}
}

func TestLikeSemantics(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT s FROM nums WHERE s LIKE '%eta'")
	if len(vs) != 1 || vs[0].S != "Beta" {
		t.Fatalf("LIKE case-insensitive percent: %v", vs)
	}
	vs = q1col(t, eng, "SELECT s FROM nums WHERE s LIKE '_lpha'")
	if len(vs) != 1 || vs[0].S != "alpha" {
		t.Fatalf("LIKE underscore: %v", vs)
	}
}

func TestBetweenInCase(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT i FROM nums WHERE i BETWEEN 2 AND 4 ORDER BY i")
	if len(vs) != 3 || vs[0].I != 2 || vs[2].I != 4 {
		t.Fatalf("BETWEEN: %v", vs)
	}
	vs = q1col(t, eng, "SELECT i FROM nums WHERE i NOT BETWEEN 2 AND 4 AND i IS NOT NULL ORDER BY i")
	if len(vs) != 2 {
		t.Fatalf("NOT BETWEEN: %v", vs)
	}
	vs = q1col(t, eng, "SELECT CASE WHEN i IN (1, 3) THEN 'odd' WHEN i IS NULL THEN 'none' ELSE 'other' END FROM nums ORDER BY i")
	if vs[0].S != "none" || vs[1].S != "odd" {
		t.Fatalf("CASE/IN: %v", vs)
	}
	vs = q1col(t, eng, "SELECT CASE i WHEN 1 THEN 'one' ELSE 'rest' END FROM nums WHERE i = 1")
	if vs[0].S != "one" {
		t.Fatalf("simple CASE: %v", vs)
	}
}

func TestSetOperations(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT i FROM nums WHERE i <= 3 UNION ALL SELECT i FROM nums WHERE i >= 3 ORDER BY 1")
	if len(vs) != 6 { // 1,2,3 + 3,4,5
		t.Fatalf("UNION ALL: %v", vs)
	}
	vs = q1col(t, eng, "SELECT i FROM nums WHERE i <= 3 UNION SELECT i FROM nums WHERE i >= 3 ORDER BY 1")
	if len(vs) != 5 {
		t.Fatalf("UNION dedup: %v", vs)
	}
	// A NULL key of a DISTINCT arm takes the other arm's kind.
	vs = q1col(t, eng, "SELECT DISTINCT NULL AS i FROM nums UNION SELECT i FROM nums WHERE i >= 3 ORDER BY 1")
	if len(vs) != 4 || !vs[0].IsNull() || vs[1].Kind != data.KindInt || vs[1].I != 3 {
		t.Fatalf("UNION over a DISTINCT NULL: %v", vs)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT i FROM nums WHERE i IS NOT NULL ORDER BY i DESC LIMIT 2 OFFSET 1")
	if len(vs) != 2 || vs[0].I != 4 || vs[1].I != 3 {
		t.Fatalf("LIMIT/OFFSET: %v", vs)
	}
	vs = q1col(t, eng, "SELECT s FROM nums WHERE s != '' ORDER BY length(s), s LIMIT 1")
	if vs[0].S != "Beta" {
		t.Fatalf("multi-key sort: %v", vs)
	}
}

func TestNativeScalarFunctions(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	cases := map[string]string{
		"SELECT length('abc')":           "3",
		"SELECT abs(-4)":                 "4",
		"SELECT coalesce(NULL, NULL, 7)": "7",
		"SELECT substr('hello', 2, 3)":   "ell",
		"SELECT instr('hello', 'll')":    "3",
		"SELECT trim('  x  ')":           "x",
		"SELECT nullif(3, 3)":            "None",
		"SELECT round(2.567, 1)":         "2.6",
		"SELECT CAST('12' AS int) + 1":   "13",
		"SELECT CAST(3.9 AS int)":        "3",
		"SELECT 7 % 4":                   "3",
		"SELECT 'a' || 'b' || 'c'":       "abc",
		"SELECT 10 / 4":                  "2",
		"SELECT 10.0 / 4":                "2.5",
	}
	for sql, want := range cases {
		vs := q1col(t, eng, sql)
		if vs[0].String() != want {
			t.Errorf("%s = %q, want %q", sql, vs[0].String(), want)
		}
	}
}

func TestMedianBlockingAggregate(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	vs := q1col(t, eng, "SELECT median(i) FROM nums")
	if f, _ := vs[0].AsFloat(); f != 3 {
		t.Fatalf("median = %v", vs[0])
	}
}

func TestHavingClause(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	res, err := eng.Query(`
SELECT CASE WHEN i < 3 THEN 'low' ELSE 'high' END AS bucket, COUNT(*) AS n
FROM nums WHERE i IS NOT NULL
GROUP BY bucket HAVING COUNT(*) > 2 ORDER BY bucket`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[0].Get(0).S != "high" {
		t.Fatalf("HAVING: %d rows", res.NumRows())
	}
}

func TestLeftJoin(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	if err := eng.Exec("CREATE TABLE side (i int, tag string)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Exec("INSERT INTO side VALUES (1, 'one'), (3, 'three')"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`
SELECT nums.i, side.tag FROM nums LEFT JOIN side ON nums.i = side.i
WHERE nums.i IS NOT NULL ORDER BY nums.i`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("left join rows = %d", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "one" || !res.Cols[1].Get(1).IsNull() {
		t.Fatalf("padding: %v %v", res.Cols[1].Get(0), res.Cols[1].Get(1))
	}
}

// TestLeftJoinKeepsUnmatchedRows: a left row whose every candidate fails
// the ON predicate — the residual of an equi join, or a non-equi ON's
// nested loop — still comes out once, NULL-extended, in left-row order,
// on the columnar and the row executor alike.
func TestLeftJoinKeepsUnmatchedRows(t *testing.T) {
	cases := []struct {
		name, on string
		want     []string // i:tag per row
	}{
		{"residual fails every match", "nums.i = side.i AND side.tag = 'zzz'",
			[]string{"1:None", "2:None", "3:None", "4:None", "5:None"}},
		{"residual keeps one match", "nums.i = side.i AND side.tag = 'three'",
			[]string{"1:None", "2:None", "3:three", "4:None", "5:None"}},
		{"non-equi", "nums.i < side.i",
			[]string{"1:three", "2:three", "3:None", "4:None", "5:None"}},
	}
	for _, mode := range []sqlengine.ExecMode{sqlengine.ModeColumnar, sqlengine.ModeRow} {
		eng := plainEngine(t, mode)
		if err := eng.Exec("CREATE TABLE side (i int, tag string)"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Exec("INSERT INTO side VALUES (1, 'one'), (3, 'three')"); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			res, err := eng.Query("SELECT nums.i, side.tag FROM nums LEFT JOIN side ON " + c.on +
				" WHERE nums.i IS NOT NULL")
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, c.name, err)
			}
			got := make([]string, res.NumRows())
			for r := range got {
				got[r] = res.Cols[0].Get(r).String() + ":" + res.Cols[1].Get(r).String()
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s/%s: got %v, want %v", mode, c.name, got, c.want)
			}
		}
	}
}

// TestExecutorParityProperty: the columnar and row executors agree on
// randomly generated filter/project/aggregate queries.
func TestExecutorParityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := []string{"i", "f"}
		col := cols[r.Intn(2)]
		cmp := []string{"<", "<=", ">", ">=", "=", "!="}[r.Intn(6)]
		lit := r.Intn(6)
		aggs := []string{"COUNT(*)", "SUM(i)", "MIN(f)", "MAX(i)", "AVG(f)"}
		agg := aggs[r.Intn(len(aggs))]
		sql := fmt.Sprintf("SELECT %s, %s FROM nums WHERE %s %s %d GROUP BY %s ORDER BY %s",
			col, agg, col, cmp, lit, col, col)

		colEng := plainEngine(t, sqlengine.ModeColumnar)
		rowEng := plainEngine(t, sqlengine.ModeRow)
		a, errA := colEng.Query(sql)
		b, errB := rowEng.Query(sql)
		if (errA == nil) != (errB == nil) {
			t.Logf("error mismatch on %s: %v vs %v", sql, errA, errB)
			return false
		}
		if errA != nil {
			return true
		}
		if a.NumRows() != b.NumRows() {
			t.Logf("row count %d vs %d on %s", a.NumRows(), b.NumRows(), sql)
			return false
		}
		for i := 0; i < a.NumRows(); i++ {
			for c := range a.Cols {
				if !data.Equal(a.Cols[c].Get(i), b.Cols[c].Get(i)) {
					t.Logf("cell (%d,%d): %v vs %v on %s", i, c, a.Cols[c].Get(i), b.Cols[c].Get(i), sql)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestParserErrors(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	for _, sql := range []string{
		"SELEC x FROM nums",
		"SELECT FROM nums",
		"SELECT i FROM nums WHERE",
		"SELECT i FROM nums GROUP",
		"SELECT i FROM nums ORDER i",
		"SELECT unclosed('x FROM nums",
		"SELECT i FROM missing_table",
		"SELECT nosuchfunc(i) FROM nums",
		"SELECT nosuchcol FROM nums",
	} {
		if _, err := eng.Query(sql); err == nil {
			t.Errorf("accepted bad SQL: %s", sql)
		}
	}
}

func TestExplainStatement(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	res, err := eng.Query("EXPLAIN SELECT i FROM nums WHERE i > 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() < 2 {
		t.Fatalf("explain rows = %d", res.NumRows())
	}
}

func TestInsertFromSelect(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	if err := eng.Exec("CREATE TABLE copies (i int, s string)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Exec("INSERT INTO copies SELECT i, s FROM nums WHERE i >= 3"); err != nil {
		t.Fatal(err)
	}
	vs := q1col(t, eng, "SELECT COUNT(*) FROM copies")
	if vs[0].I != 3 {
		t.Fatalf("copied rows = %v", vs[0])
	}
}

// TestChunkedModeMatchesColumnar: a serial engine that splits every
// input into 2-row morsels answers as the unsplit one does.
func TestChunkedModeMatchesColumnar(t *testing.T) {
	a := plainEngine(t, sqlengine.ModeColumnar)
	b := plainEngine(t, sqlengine.ModeColumnar)
	b.MorselSize = 2 // force many morsels
	for _, sql := range []string{
		"SELECT i + 1 FROM nums WHERE i IS NOT NULL ORDER BY i",
		"SELECT s, COUNT(*) FROM nums GROUP BY s ORDER BY s",
		"SELECT DISTINCT CASE WHEN i < 3 THEN 'x' ELSE 'y' END FROM nums WHERE i IS NOT NULL ORDER BY 1",
	} {
		x := q1col(t, a, sql)
		y := q1col(t, b, sql)
		if len(x) != len(y) {
			t.Fatalf("%s: %d vs %d rows", sql, len(x), len(y))
		}
		for i := range x {
			if !data.Equal(x[i], y[i]) {
				t.Fatalf("%s row %d: %v vs %v", sql, i, x[i], y[i])
			}
		}
	}
}

func TestParallelismMatchesSerial(t *testing.T) {
	a := plainEngine(t, sqlengine.ModeColumnar)
	b := plainEngine(t, sqlengine.ModeColumnar)
	b.Parallelism = 4
	sql := "SELECT i * 2 FROM nums WHERE i IS NOT NULL ORDER BY 1"
	x := q1col(t, a, sql)
	y := q1col(t, b, sql)
	if len(x) != len(y) {
		t.Fatalf("rows %d vs %d", len(x), len(y))
	}
	for i := range x {
		if !data.Equal(x[i], y[i]) {
			t.Fatalf("row %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestPlanStatement(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	st, err := sqlengine.ParseSQL("SELECT i FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlengine.PlanStatement(eng.Catalog, st)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root == nil {
		t.Fatal("no plan")
	}
	up, _ := sqlengine.ParseSQL("UPDATE nums SET i = 1")
	if _, err := sqlengine.PlanStatement(eng.Catalog, up); err == nil {
		t.Fatal("DML accepted by PlanStatement")
	}
}

// TestRowModeBlockingOperators: union/sort/limit/aggregate through the
// Volcano executor match the columnar executor on a UDF-free workload.
func TestRowModeBlockingOperators(t *testing.T) {
	col := plainEngine(t, sqlengine.ModeColumnar)
	row := plainEngine(t, sqlengine.ModeRow)
	queries := []string{
		"SELECT i FROM nums WHERE i <= 2 UNION ALL SELECT i FROM nums WHERE i >= 4 ORDER BY 1",
		"SELECT DISTINCT CASE WHEN i > 2 THEN 'hi' ELSE 'lo' END FROM nums WHERE i IS NOT NULL ORDER BY 1",
		"SELECT s FROM nums WHERE s != '' ORDER BY s DESC LIMIT 3 OFFSET 1",
		"SELECT COUNT(*), SUM(i), MIN(f), MAX(f), AVG(i) FROM nums",
		"SELECT median(i) FROM nums",
	}
	for _, sql := range queries {
		a, errA := col.Query(sql)
		b, errB := row.Query(sql)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", sql, errA, errB)
		}
		if a.NumRows() != b.NumRows() {
			t.Fatalf("%s: %d vs %d rows", sql, a.NumRows(), b.NumRows())
		}
		for i := 0; i < a.NumRows(); i++ {
			for c := range a.Cols {
				if !data.Equal(a.Cols[c].Get(i), b.Cols[c].Get(i)) {
					t.Fatalf("%s row %d col %d: %v vs %v", sql, i, c,
						a.Cols[c].Get(i), b.Cols[c].Get(i))
				}
			}
		}
	}
}

// TestUpdateSetsFirstNull: a NULL written into a column that has held no
// NULL yet creates the column's null mask instead of being dropped.
func TestUpdateSetsFirstNull(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	for _, sql := range []string{
		"CREATE TABLE u (a int, s string)",
		"INSERT INTO u VALUES (1, 'x'), (2, 'y')",
		"UPDATE u SET a = NULL, s = NULL WHERE a = 1",
	} {
		if err := eng.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := eng.Query("SELECT a, s FROM u ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Cols {
		if got := res.Cols[c].Get(0); !got.IsNull() {
			t.Errorf("column %d: updated row reads %v, want NULL", c, got)
		}
	}
	if res.Cols[0].Get(1).I != 2 || res.Cols[1].Get(1).S != "y" {
		t.Errorf("untouched row changed: %v", res.Chunk().Row(1))
	}
}

// TestDeleteAllAndReinsert: DELETE without WHERE truncates; the table
// stays usable.
func TestDeleteAllAndReinsert(t *testing.T) {
	eng := plainEngine(t, sqlengine.ModeColumnar)
	if err := eng.Exec("DELETE FROM nums"); err != nil {
		t.Fatal(err)
	}
	vs := q1col(t, eng, "SELECT COUNT(*) FROM nums")
	if vs[0].I != 0 {
		t.Fatalf("rows after truncate = %v", vs[0])
	}
	if err := eng.Exec("INSERT INTO nums VALUES (9, 9.0, 'new')"); err != nil {
		t.Fatal(err)
	}
	vs = q1col(t, eng, "SELECT s FROM nums")
	if vs[0].S != "new" {
		t.Fatalf("got %v", vs[0])
	}
}

// TestAggregateOrderByKeyOrAggregate: an aggregate query orders by a
// qualified group key or by an aggregate it selects. Both keys read the
// aggregate's output, as the select items do.
func TestAggregateOrderByKeyOrAggregate(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT p.city, COUNT(*) AS n FROM people AS p GROUP BY p.city ORDER BY p.city",
			"[athens:2 berlin:2 paris:2]"},
		{"SELECT p.city, SUM(p.age) AS s FROM people AS p GROUP BY p.city ORDER BY SUM(p.age)",
			"[paris:60 athens:79 berlin:80]"},
	}
	for _, x := range executors {
		eng := newTestEngine(t, x.mode, ffi.VectorInvoker{})
		eng.MorselSize = x.morsel
		for _, c := range cases {
			res, err := eng.Query(c.sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", x.name, c.sql, err)
			}
			got := make([]string, res.NumRows())
			for r := range got {
				got[r] = res.Cols[0].Get(r).String() + ":" + res.Cols[1].Get(r).String()
			}
			if fmt.Sprint(got) != c.want {
				t.Errorf("%s: %s: got %v, want %s", x.name, c.sql, got, c.want)
			}
		}
	}
}
