package sqlengine_test

import (
	"fmt"
	"strings"
	"testing"

	"qfusor/internal/ffi"
)

// TestPrunedPlansReturnTheRows: queries whose nodes read fewer columns
// than their children emit return hand-checked rows on every executor.
// Each case narrows a different operator: a join read by COUNT(*) alone,
// a LEFT join read only on its padded side, a join key read by nothing
// above the join, a CTE whose two references need different columns, a
// filter column and an ORDER BY column the select list drops, and a dead
// UDF output, which is still computed.
func TestPrunedPlansReturnTheRows(t *testing.T) {
	cases := []struct{ name, sql, want string }{
		{"count over a join",
			"SELECT COUNT(*) FROM people JOIN cities ON people.city = cities.city",
			"4"},
		{"left join reads only its padded side",
			"SELECT cities.country FROM people LEFT JOIN cities ON people.city = cities.city ORDER BY people.id",
			"GR DE GR NULL DE NULL"},
		{"join key unread above the join",
			"SELECT people.name, cities.pop FROM people JOIN cities ON people.city = cities.city ORDER BY people.name",
			"Alice Smith|3 Bob Jones|4 Carol White|3 Eve Adams|4"},
		{"cte joined to itself",
			`WITH c AS (SELECT id, name, age, city FROM people WHERE age > 20)
			 SELECT a.name, b.age FROM c AS a JOIN c AS b ON a.city = b.city AND a.id < b.id ORDER BY a.name`,
			"Alice Smith|45 Bob Jones|52"},
		{"filter column not projected",
			"SELECT name FROM people WHERE age > 40 ORDER BY name",
			"Carol White Eve Adams frank green"},
		{"order by a hidden column",
			"SELECT name FROM people ORDER BY score DESC LIMIT 3",
			"Eve Adams Alice Smith Carol White"},
		{"dead udf output",
			"SELECT COUNT(*) FROM (SELECT id, addten(age) AS a FROM people) AS x",
			"6"},
	}
	for _, x := range executors {
		eng := newTestEngine(t, x.mode, ffi.VectorInvoker{})
		eng.MorselSize = x.morsel
		if err := eng.Exec("CREATE TABLE cities (city string, country string, pop int)"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Exec("INSERT INTO cities VALUES ('athens', 'GR', 3), ('berlin', 'DE', 4), ('rome', 'IT', 3)"); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			res, err := eng.Query(c.sql)
			if err != nil {
				t.Fatalf("%s/%s: %v", x.name, c.name, err)
			}
			rows := make([]string, res.NumRows())
			for r := range rows {
				cells := make([]string, len(res.Cols))
				for i, col := range res.Cols {
					cells[i] = col.Get(r).String()
					if col.IsNull(r) {
						cells[i] = "NULL"
					}
				}
				rows[r] = strings.Join(cells, "|")
			}
			if got := strings.Join(rows, " "); got != c.want {
				t.Errorf("%s/%s: got %q, want %q", x.name, c.name, got, c.want)
			}
		}
	}
}

// TestDeadUDFOutputIsCalled: a projection output that no one reads is
// still computed when it calls a function — the calls, the rows they see
// and any error they raise stay the query's — so a query that drops the
// output crosses the boundary exactly as one that reads it, and fails
// where that one fails.
func TestDeadUDFOutputIsCalled(t *testing.T) {
	for _, x := range executors {
		eng := newTestEngine(t, x.mode, ffi.VectorInvoker{})
		eng.MorselSize = x.morsel
		u, _ := eng.Catalog.UDF("addten")
		usage := func(sql string) string {
			calls, rows := u.Stats.Calls.Load(), u.Stats.InRows.Load()
			if _, err := eng.Query(sql); err != nil {
				t.Fatalf("%s: %s: %v", x.name, sql, err)
			}
			return fmt.Sprintf("%d calls over %d rows", u.Stats.Calls.Load()-calls, u.Stats.InRows.Load()-rows)
		}
		dead := usage("SELECT COUNT(*) FROM (SELECT id, addten(age) AS a FROM people) AS x")
		read := usage("SELECT COUNT(a) FROM (SELECT id, addten(age) AS a FROM people) AS x")
		if dead != read || strings.HasPrefix(dead, "0 calls") {
			t.Errorf("%s: dead output made %s, read output %s", x.name, dead, read)
		}
		if _, err := eng.Query("SELECT COUNT(*) FROM (SELECT id, nosuchfn(age) AS a FROM people) AS x"); err == nil {
			t.Errorf("%s: a dead call of an unknown function raised no error", x.name)
		}
	}
}
