package sqlengine_test

import (
	"fmt"
	"strconv"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// BenchmarkDedup measures the native dedup — a group-by with no
// aggregates — over 200 000 rows of an int and a string column with 1,
// 10 000 and 200 000 distinct rows: a DISTINCT over one table, and a
// UNION of its two halves.
func BenchmarkDedup(b *testing.B) {
	const rows = 200_000
	for _, distinct := range []int{1, 10_000, rows} {
		eng := sqlengine.New("dedup-bench", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
		half := func(name string, lo, hi int) {
			t := data.NewTable(name, data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
			for i := lo; i < hi; i++ {
				k := i % distinct
				if err := t.AppendRow(data.Int(int64(k)), data.Str("v"+strconv.Itoa(k))); err != nil {
					b.Fatal(err)
				}
			}
			eng.Catalog.PutTable(t)
		}
		half("t", 0, rows)
		half("a", 0, rows/2)
		half("b", rows/2, rows)
		for _, q := range []struct{ name, sql string }{
			{"distinct", "SELECT DISTINCT k, s FROM t"},
			{"union", "SELECT k, s FROM a UNION SELECT k, s FROM b"},
		} {
			b.Run(fmt.Sprintf("%s/d=%d", q.name, distinct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query(q.sql)
					if err != nil {
						b.Fatal(err)
					}
					if res.NumRows() != distinct {
						b.Fatalf("%d rows, want %d", res.NumRows(), distinct)
					}
				}
			})
		}
	}
}
