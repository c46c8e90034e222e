package sqlengine_test

import (
	"fmt"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
)

// newTestEngine builds an engine with a small dataset and a few UDFs.
func newTestEngine(t *testing.T, mode sqlengine.ExecMode, inv ffi.Invoker) *sqlengine.Engine {
	t.Helper()
	eng := sqlengine.New("test", mode, inv, 0)

	people := data.NewTable("people", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "name", Kind: data.KindString},
		{Name: "age", Kind: data.KindInt},
		{Name: "city", Kind: data.KindString},
		{Name: "score", Kind: data.KindFloat},
	})
	rows := []struct {
		id    int64
		name  string
		age   int64
		city  string
		score float64
	}{
		{1, "Alice Smith", 34, "athens", 91.5},
		{2, "Bob Jones", 28, "berlin", 75.0},
		{3, "Carol White", 45, "athens", 88.25},
		{4, "dave black", 19, "paris", 60.5},
		{5, "Eve Adams", 52, "berlin", 99.0},
		{6, "frank green", 41, "paris", 45.75},
	}
	for _, r := range rows {
		if err := people.AppendRow(data.Int(r.id), data.Str(r.name), data.Int(r.age),
			data.Str(r.city), data.Float(r.score)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog.PutTable(people)

	tags := data.NewTable("tags", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "tags", Kind: data.KindList},
	})
	for i := int64(1); i <= 6; i++ {
		items := []data.Value{data.Str(fmt.Sprintf("t%d", i)), data.Str("common")}
		if err := tags.AppendRow(data.Int(i), data.NewList(items)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog.PutTable(tags)

	reg := core.NewRegistry(8)
	err := reg.Define(`
@scalarudf
def upname(s: str) -> str:
    return s.upper()

@scalarudf
def addten(x: int) -> int:
    return x + 10

@scalarudf
def firstword(s: str) -> str:
    return s.split(" ")[0]

@aggregateudf
class strjoin:
    def init(self):
        self.parts = []
    def step(self, s):
        self.parts.append(s)
    def final(self):
        return ",".join(sorted(self.parts))

@expandudf
def explode(s: str) -> str:
    for w in s.split(" "):
        yield w

@scalarudf
def ntags(xs: list) -> int:
    return len(xs)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(core.UDFSpec{Name: "strjoin", Kind: ffi.Aggregate,
		In: []data.Kind{data.KindString}, Out: []data.Kind{data.KindString}}); err != nil {
		t.Fatal(err)
	}
	reg.Attach(eng)
	return eng
}

// engineConfig is one executor/transport configuration tests run
// under; morsel is the engine's MorselSize (0 = default).
type engineConfig struct {
	mode   sqlengine.ExecMode
	inv    func() ffi.Invoker
	morsel int
}

// modes returns the executor/transport configurations tests run under.
// chunked-vector is the columnar executor with every input split at
// DuckDB's vector size, serial or not.
func modes() map[string]engineConfig {
	vector := func() ffi.Invoker { return ffi.VectorInvoker{} }
	return map[string]engineConfig{
		"columnar-vector": {sqlengine.ModeColumnar, vector, 0},
		"chunked-vector":  {sqlengine.ModeColumnar, vector, 2048},
		"row-tuple":       {sqlengine.ModeRow, func() ffi.Invoker { return ffi.TupleInvoker{} }, 0},
		"row-process":     {sqlengine.ModeRow, func() ffi.Invoker { return ffi.NewProcessInvoker(64) }, 0},
	}
}

// executors are the executor shapes a test runs under with one
// transport: columnar, row, and columnar with every input split at
// DuckDB's vector size ("chunked").
var executors = []struct {
	name   string
	mode   sqlengine.ExecMode
	morsel int
}{{"columnar", sqlengine.ModeColumnar, 0}, {"row", sqlengine.ModeRow, 0}, {"chunked", sqlengine.ModeColumnar, 2048}}

// runAllModes executes fn once per engine configuration.
func runAllModes(t *testing.T, fn func(t *testing.T, eng *sqlengine.Engine)) {
	for name, cfg := range modes() {
		t.Run(name, func(t *testing.T) {
			inv := cfg.inv()
			if p, ok := inv.(*ffi.ProcessInvoker); ok {
				defer p.Close()
			}
			eng := newTestEngine(t, cfg.mode, inv)
			eng.MorselSize = cfg.morsel
			fn(t, eng)
		})
	}
}

func queryStrings(t *testing.T, eng *sqlengine.Engine, sql string, col int) []string {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([]string, res.NumRows())
	for i := range out {
		out[i] = res.Cols[col].Get(i).String()
	}
	return out
}

func TestSelectProjectFilter(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		got := queryStrings(t, eng,
			"SELECT name FROM people WHERE age > 30 AND city = 'athens' ORDER BY id", 0)
		want := []string{"Alice Smith", "Carol White"}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
}

func TestScalarUDFInQuery(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		got := queryStrings(t, eng,
			"SELECT upname(firstword(name)) FROM people WHERE id <= 2 ORDER BY id", 0)
		if got[0] != "ALICE" || got[1] != "BOB" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestUDFInWhere(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		got := queryStrings(t, eng,
			"SELECT name FROM people WHERE addten(age) >= 55 ORDER BY id", 0)
		// age >= 45: Carol (45), Eve (52)
		if len(got) != 2 || got[0] != "Carol White" || got[1] != "Eve Adams" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestGroupByNativeAndUDFAggregate(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		res, err := eng.Query(
			"SELECT city, COUNT(*), SUM(age), strjoin(firstword(name)) FROM people GROUP BY city ORDER BY city")
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 3 {
			t.Fatalf("rows = %d, want 3", res.NumRows())
		}
		// athens: Alice, Carol
		if res.Cols[0].Get(0).String() != "athens" {
			t.Fatalf("first city %v", res.Cols[0].Get(0))
		}
		if n, _ := res.Cols[1].Get(0).AsInt(); n != 2 {
			t.Fatalf("athens count %d", n)
		}
		if s, _ := res.Cols[2].Get(0).AsInt(); s != 79 {
			t.Fatalf("athens sum(age) %d", s)
		}
		if res.Cols[3].Get(0).String() != "Alice,Carol" {
			t.Fatalf("athens strjoin %q", res.Cols[3].Get(0).String())
		}
	})
}

func TestExpandUDF(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		res, err := eng.Query(
			"SELECT id, explode(name) AS w FROM people WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 2 {
			t.Fatalf("rows = %d, want 2", res.NumRows())
		}
		if res.Cols[1].Get(0).String() != "Alice" || res.Cols[1].Get(1).String() != "Smith" {
			t.Fatalf("got %v %v", res.Cols[1].Get(0), res.Cols[1].Get(1))
		}
		if id, _ := res.Cols[0].Get(1).AsInt(); id != 1 {
			t.Fatalf("keep col not replicated: %d", id)
		}
	})
}

func TestComplexTypeColumn(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		got := queryStrings(t, eng, "SELECT ntags(tags) FROM tags WHERE id = 3", 0)
		if got[0] != "2" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestJoinAndCTE(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		sql := `
WITH grown(id, name) AS (
    SELECT id, name FROM people WHERE age >= 40
)
SELECT grown.name, tags.id
FROM grown, tags
WHERE grown.id = tags.id
ORDER BY tags.id`
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 3 { // Carol(45), Eve(52), frank(41)
			t.Fatalf("rows = %d, want 3", res.NumRows())
		}
	})
}

func TestCaseExpression(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		res, err := eng.Query(`
SELECT city,
       SUM(CASE WHEN age >= 40 THEN 1 ELSE NULL END) AS old,
       SUM(CASE WHEN age < 40 THEN 1 ELSE NULL END) AS young
FROM people GROUP BY city ORDER BY city`)
		if err != nil {
			t.Fatal(err)
		}
		// athens: old=1 (Carol 45), young=1 (Alice 34)
		if v, _ := res.Cols[1].Get(0).AsInt(); v != 1 {
			t.Fatalf("athens old = %v", res.Cols[1].Get(0))
		}
	})
}

func TestDistinctUnionLimit(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		// A DISTINCT is a group-by that keeps its input's names and
		// qualifiers: ORDER BY binds over it by name, qualified name or
		// position.
		for _, sql := range []string{
			"SELECT DISTINCT city FROM people ORDER BY city",
			"SELECT DISTINCT p.city FROM people AS p ORDER BY p.city",
			"SELECT DISTINCT city FROM people ORDER BY 1",
		} {
			got := queryStrings(t, eng, sql, 0)
			if len(got) != 3 || got[0] != "athens" {
				t.Fatalf("%s: got %v", sql, got)
			}
		}
		got := queryStrings(t, eng,
			"SELECT city FROM people UNION SELECT city FROM people ORDER BY city LIMIT 2", 0)
		if len(got) != 2 || got[0] != "athens" || got[1] != "berlin" {
			t.Fatalf("union got %v", got)
		}
	})
}

func TestSubqueryInFrom(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		got := queryStrings(t, eng, `
SELECT u.n FROM (SELECT upname(name) AS n, age FROM people) AS u
WHERE u.age > 50`, 0)
		if len(got) != 1 || got[0] != "EVE ADAMS" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestUpdateWithUDF(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		if err := eng.Exec("UPDATE people SET name = upname(name) WHERE addten(age) > 55"); err != nil {
			t.Fatal(err)
		}
		got := queryStrings(t, eng, "SELECT name FROM people WHERE id = 5", 0)
		if got[0] != "EVE ADAMS" {
			t.Fatalf("got %v", got)
		}
		got = queryStrings(t, eng, "SELECT name FROM people WHERE id = 1", 0)
		if got[0] != "Alice Smith" {
			t.Fatalf("unexpected update of row 1: %v", got)
		}
	})
}

func TestInsertDeleteCreate(t *testing.T) {
	runAllModes(t, func(t *testing.T, eng *sqlengine.Engine) {
		if err := eng.Exec("CREATE TABLE t2 (a int, b string)"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Exec("INSERT INTO t2 VALUES (1, 'x'), (2, 'y'), (3, 'z')"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Exec("DELETE FROM t2 WHERE a = 2"); err != nil {
			t.Fatal(err)
		}
		got := queryStrings(t, eng, "SELECT b FROM t2 ORDER BY a", 1-1)
		if len(got) != 2 || got[0] != "x" || got[1] != "z" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestExplainOutput(t *testing.T) {
	mode, inv := sqlengine.ModeColumnar, ffi.VectorInvoker{}
	eng := newTestEngine(t, mode, inv)
	q, err := eng.Plan("SELECT upname(name) FROM people WHERE age > 30")
	if err != nil {
		t.Fatal(err)
	}
	s := q.Explain()
	for _, want := range []string{"Project", "Filter", "Scan people", "upname"} {
		if !contains(s, want) {
			t.Fatalf("explain missing %q:\n%s", want, s)
		}
	}
	if !q.HasUDF() {
		t.Fatal("HasUDF = false")
	}
}

// TestHasUDFInOrderBy: a UDF call bound into a sort key (its argument is
// in the select list) counts as a UDF call of the sort node.
func TestHasUDFInOrderBy(t *testing.T) {
	eng := newTestEngine(t, sqlengine.ModeColumnar, ffi.VectorInvoker{})
	q, err := eng.Plan("SELECT name FROM people ORDER BY upname(name)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Op != sqlengine.OpSort || len(q.Root.UDFCalls()) != 1 || !q.HasUDF() {
		t.Fatalf("the sort key's UDF call is not found:\n%s", q.Explain())
	}
}

func TestFilterPushdownThroughProject(t *testing.T) {
	eng := newTestEngine(t, sqlengine.ModeColumnar, ffi.VectorInvoker{})
	q, err := eng.Plan("SELECT n, a FROM (SELECT name AS n, age AS a FROM people) AS s WHERE a > 30")
	if err != nil {
		t.Fatal(err)
	}
	// The filter should sit below the projection, directly over the scan.
	var sawFilterOverScan bool
	q.Root.Walk(func(p *sqlengine.Plan) {
		if p.Op == sqlengine.OpFilter && len(p.Children) == 1 && p.Children[0].Op == sqlengine.OpScan {
			sawFilterOverScan = true
		}
	})
	if !sawFilterOverScan {
		t.Fatalf("filter not pushed down:\n%s", q.Explain())
	}
}

func TestCrossJoinBecomesHashJoin(t *testing.T) {
	eng := newTestEngine(t, sqlengine.ModeColumnar, ffi.VectorInvoker{})
	q, err := eng.Plan("SELECT people.name FROM people, tags WHERE people.id = tags.id")
	if err != nil {
		t.Fatal(err)
	}
	var joinKind string
	q.Root.Walk(func(p *sqlengine.Plan) {
		if p.Op == sqlengine.OpJoin {
			joinKind = p.JoinKind
		}
	})
	if joinKind != "INNER" {
		t.Fatalf("join kind = %q, want INNER:\n%s", joinKind, q.Explain())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestStatementResolvesUDFNameOnce: a statement runs one definition of
// a UDF. ver is redefined (by redef's side effect) between the
// evaluation of the first and the third output column; both must still
// come from the definition the statement resolved first, and the next
// statement sees the new one.
func TestStatementResolvesUDFNameOnce(t *testing.T) {
	for _, mode := range []sqlengine.ExecMode{sqlengine.ModeColumnar, sqlengine.ModeRow} {
		inv := ffi.Invoker(ffi.VectorInvoker{})
		if mode == sqlengine.ModeRow {
			inv = ffi.TupleInvoker{}
		}
		eng := sqlengine.New("pin", mode, inv, 0)
		tb := data.NewTable("t", data.Schema{{Name: "x", Kind: data.KindInt}, {Name: "y", Kind: data.KindInt}})
		for i := int64(0); i < 4; i++ {
			_ = tb.AppendRow(data.Int(i), data.Int(i))
		}
		eng.Catalog.PutTable(tb)
		ver := func(v int64) *ffi.UDF {
			return &ffi.UDF{Name: "ver", Kind: ffi.Scalar, InKinds: []data.Kind{data.KindInt}, OutKinds: []data.Kind{data.KindInt},
				GoFn: func([]data.Value) (data.Value, error) { return data.Int(v), nil }}
		}
		eng.Catalog.PutUDF(ver(1))
		eng.Catalog.PutUDF(&ffi.UDF{Name: "redef", Kind: ffi.Scalar, InKinds: []data.Kind{data.KindInt}, OutKinds: []data.Kind{data.KindInt},
			GoFn: func(a []data.Value) (data.Value, error) { eng.Catalog.PutUDF(ver(2)); return a[0], nil }})
		res, err := eng.Query("SELECT ver(x) AS a, redef(x) AS r, ver(y) AS b FROM t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.NumRows(); i++ {
			if a, b := res.Cols[0].Get(i).I, res.Cols[2].Get(i).I; a != 1 || b != 1 {
				t.Fatalf("%v row %d: ver = %d then %d within one statement, want 1 and 1", mode, i, a, b)
			}
		}
		res, err = eng.Query("SELECT ver(x) AS a FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cols[0].Get(0).I; got != 2 {
			t.Fatalf("%v: next statement ran ver = %d, want the redefinition (2)", mode, got)
		}
	}
}

// TestExpressionsCompileOncePerNode: a plan node's expressions compile
// into one program per statement execution, however many morsels run it:
// an aggregate's group keys, native-aggregate arguments and computed
// UDF-aggregate arguments together, an UPDATE's SET list together.
func TestExpressionsCompileOncePerNode(t *testing.T) {
	eng := newTestEngine(t, sqlengine.ModeColumnar, ffi.VectorInvoker{})
	eng.Parallelism, eng.MorselSize = 8, 2
	compiles := obs.Default.Counter("engine.expr_compiles")

	before := compiles.Value()
	res, err := eng.Query("SELECT city, SUM(age + 1), strjoin(firstword(name)) FROM people WHERE age > 20 GROUP BY city ORDER BY city")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Cols[1].Get(0), res.Cols[2].Get(0), res.Cols[2].Get(1)); got != "81 Alice,Carol Bob,Eve" {
		t.Fatalf("got %s", got)
	}
	// Filter, Aggregate and Sort: three nodes, three programs. The
	// Project only passes columns through, so it compiles none.
	if d := compiles.Value() - before; d != 3 {
		t.Errorf("query compiled %d programs, want 3 (one per computing node)", d)
	}

	before = compiles.Value()
	if err := eng.Exec("UPDATE people SET name = upname(name), age = age + 1 WHERE addten(age) > 55"); err != nil {
		t.Fatal(err)
	}
	// The predicate over the table, the SET list over the rows it kept.
	if d := compiles.Value() - before; d != 2 {
		t.Errorf("UPDATE compiled %d programs, want 2", d)
	}
	if got := queryStrings(t, eng, "SELECT name || age FROM people WHERE id = 5", 0); got[0] != "EVE ADAMS53" {
		t.Fatalf("got %v", got)
	}
}
