package sqlengine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// The morsel-executor property: every query must return the same row
// set at any parallelism, and exactly the same row order whenever the
// query fixes one (ORDER BY, or the serial group/dedup first-seen order
// the parallel merge is required to reproduce). These tests sweep seeds
// and worker counts over randomized tables large enough to split into
// several morsels, covering the partial-aggregate merge (sum/avg/count/
// min/max over ints, floats and nulls), parallel join build/probe,
// parallel sort-merge, and partitioned distinct.

// genMorselTable builds a randomized fact table with skewed group keys,
// negative and integral-float values, and NULLs in every value column.
func genMorselTable(name string, seed int64, rows int) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	t := data.NewTable(name, data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "grp", Kind: data.KindString},
		{Name: "v", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat},
		{Name: "s", Kind: data.KindString},
	})
	for i := 0; i < rows; i++ {
		// Zipf-ish group skew: a few heavy groups plus a long tail.
		var grp string
		if rng.Intn(3) == 0 {
			grp = fmt.Sprintf("g%d", rng.Intn(3))
		} else {
			grp = fmt.Sprintf("g%d", rng.Intn(40))
		}
		v := data.Value(data.Int(int64(rng.Intn(2001) - 1000)))
		if rng.Intn(17) == 0 {
			v = data.Null
		}
		f := data.Value(data.Float(float64(rng.Intn(4001)-2000) / 4))
		if rng.Intn(13) == 0 {
			f = data.Null
		}
		s := fmt.Sprintf("s%03d", rng.Intn(200))
		if err := t.AppendRow(data.Int(int64(i)), data.Str(grp), v, f, data.Str(s)); err != nil {
			panic(err)
		}
	}
	return t
}

// newMorselEngine builds an engine over two randomized tables at the
// given morsel size (0 = default) and parallelism.
func newMorselEngine(morsel, par int, seed int64, rows int) *sqlengine.Engine {
	eng := sqlengine.New("morsel-test", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
	eng.Parallelism, eng.MorselSize = par, morsel
	eng.Catalog.PutTable(genMorselTable("m", seed, rows))
	eng.Catalog.PutTable(genMorselTable("d", seed+1000, rows/4))
	return eng
}

// maskLine lists which of a result's columns carry a null mask.
func maskLine(t *data.Table) string {
	var b strings.Builder
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%s:%t|", c.Name, c.Nulls != nil)
	}
	return b.String()
}

// rowLines renders a result as one formatted line per row.
func rowLines(t *data.Table) []string {
	lines := make([]string, t.NumRows())
	var b strings.Builder
	for i := 0; i < t.NumRows(); i++ {
		b.Reset()
		for _, c := range t.Cols {
			v := c.Get(i)
			if v.IsNull() {
				b.WriteString("<null>|")
			} else {
				fmt.Fprintf(&b, "%v|", v)
			}
		}
		lines[i] = b.String()
	}
	return lines
}

var morselQueries = []struct {
	name    string
	sql     string
	ordered bool // compare exact row order, not just the row set
}{
	{"agg-grouped", `SELECT grp, COUNT(*), SUM(v), AVG(v), AVG(f), MIN(v), MAX(f), MIN(s)
		FROM m GROUP BY grp`, true},
	{"agg-global", `SELECT COUNT(*), SUM(f), AVG(v), MIN(f), MAX(v) FROM m`, true},
	{"agg-two-keys", `SELECT grp, s, COUNT(*), SUM(v) FROM m WHERE v IS NOT NULL GROUP BY grp, s`, true},
	{"join-inner", `SELECT m.id, m.grp, d.v FROM m JOIN d ON m.grp = d.grp AND m.s = d.s`, true},
	{"join-left", `SELECT m.id, d.id FROM m LEFT JOIN d ON m.s = d.s`, true},
	{"join-residual", `SELECT m.id, d.id, m.v, d.v FROM m JOIN d ON m.s = d.s AND m.v < d.v`, true},
	{"join-left-residual", `SELECT m.id, d.id, d.f FROM m LEFT JOIN d ON m.grp = d.grp AND d.f > m.f + 900`, true},
	{"join-nested-loop", `SELECT m.id, d.id FROM m JOIN d ON m.v > d.v + 1500 WHERE d.grp = 'g7'`, true},
	{"sort-ties", `SELECT grp, v, id FROM m ORDER BY grp, v`, true},
	{"sort-desc", `SELECT f, s, id FROM m ORDER BY f DESC, s, id`, true},
	{"distinct", `SELECT DISTINCT grp, s FROM m`, true},
	{"filter-project", `SELECT id, v * 2, f FROM m WHERE v > 0 AND f IS NOT NULL`, true},
	{"having", `SELECT grp, COUNT(*) FROM m GROUP BY grp HAVING COUNT(*) > 10 ORDER BY grp`, true},
	{"filter-masked", `SELECT id, v, f FROM m WHERE f > 0`, true},
	{"join-left-unmasked", `SELECT m.id, m.v, d.id, d.grp FROM m LEFT JOIN d ON m.id = d.id`, true},
}

// TestMorselParallelismEquivalence sweeps seeds × worker counts and
// requires bit-identical results against the serial executor.
func TestMorselParallelismEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	rows := 5000 // several 2048-row morsels
	// Morsel size 0 splits only when parallel; 2048 splits the serial run
	// too.
	for _, morsel := range []int{0, 2048} {
		for _, seed := range seeds {
			want := map[string][]string{}
			ser := newMorselEngine(morsel, 1, seed, rows)
			for _, q := range morselQueries {
				res, err := ser.Query(q.sql)
				if err != nil {
					t.Fatalf("morsel=%d/%s serial: %v", morsel, q.name, err)
				}
				if res.NumRows() == 0 {
					t.Fatalf("morsel=%d/%s serial: empty result (bad generator)", morsel, q.name)
				}
				want[q.name] = append(rowLines(res), maskLine(res))
			}
			for _, par := range []int{2, 3, 8} {
				eng := newMorselEngine(morsel, par, seed, rows)
				for _, q := range morselQueries {
					res, err := eng.Query(q.sql)
					if err != nil {
						t.Fatalf("morsel=%d/%s par=%d: %v", morsel, q.name, par, err)
					}
					got := append(rowLines(res), maskLine(res))
					exp := append([]string(nil), want[q.name]...)
					if !q.ordered {
						sort.Strings(got)
						sort.Strings(exp)
					}
					if len(got) != len(exp) {
						t.Fatalf("morsel=%d/%s seed=%d par=%d: %d rows, serial has %d",
							morsel, q.name, seed, par, len(got), len(exp))
					}
					for i := range got {
						if got[i] != exp[i] {
							t.Fatalf("morsel=%d/%s seed=%d par=%d: row %d differs\n got: %s\nwant: %s",
								morsel, q.name, seed, par, i, got[i], exp[i])
						}
					}
				}
			}
		}
	}
}

// TestMorselMergeFuzz is the aggregate-merge fuzz sweep: many seeds,
// row counts straddling the morsel size and the minParallelRows gate,
// checking the merged partial aggregates against serial execution.
func TestMorselMergeFuzz(t *testing.T) {
	sql := `SELECT grp, COUNT(*), SUM(v), AVG(v), AVG(f), MIN(f), MAX(v) FROM m GROUP BY grp`
	nSeeds := int64(12)
	if testing.Short() {
		nSeeds = 3
	}
	for seed := int64(100); seed < 100+nSeeds; seed++ {
		rows := 200 + int(seed%7)*700 // 200 .. 4400: serial gate, 1 morsel, many morsels
		ser := newMorselEngine(0, 1, seed, rows)
		want, err := ser.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		wl := rowLines(want)
		for _, par := range []int{2, 8} {
			eng := newMorselEngine(0, par, seed, rows)
			got, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("seed=%d par=%d: %v", seed, par, err)
			}
			gl := rowLines(got)
			if len(gl) != len(wl) {
				t.Fatalf("seed=%d rows=%d par=%d: %d groups, serial has %d", seed, rows, par, len(gl), len(wl))
			}
			for i := range gl {
				if gl[i] != wl[i] {
					t.Fatalf("seed=%d rows=%d par=%d: group %d differs\n got: %s\nwant: %s",
						seed, rows, par, i, gl[i], wl[i])
				}
			}
		}
	}
}
