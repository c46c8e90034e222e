package sqlengine_test

import (
	"fmt"
	"strconv"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// BenchmarkGroupBy measures the native group-by over 200 000 rows with
// 3, 16 and 10 000 groups, keyed on an int and on a string column, each
// folding COUNT(*), SUM(n) and MAX(f).
func BenchmarkGroupBy(b *testing.B) {
	const rows = 200_000
	for _, groups := range []int{3, 16, 10_000} {
		eng := sqlengine.New("groupby-bench", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
		t := data.NewTable("t", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "s", Kind: data.KindString},
			{Name: "n", Kind: data.KindInt}, {Name: "f", Kind: data.KindFloat}})
		for i := 0; i < rows; i++ {
			k := i * 7919 % groups
			if err := t.AppendRow(data.Int(int64(k)), data.Str("g"+strconv.Itoa(k)), data.Int(int64(i)), data.Float(float64(i%977)/7)); err != nil {
				b.Fatal(err)
			}
		}
		eng.Catalog.PutTable(t)
		for _, key := range []string{"k", "s"} {
			sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(n), MAX(f) FROM t GROUP BY %s", key, key)
			b.Run(fmt.Sprintf("%s/g=%d", key, groups), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query(sql)
					if err != nil {
						b.Fatal(err)
					}
					if res.NumRows() != groups {
						b.Fatalf("%d groups, want %d", res.NumRows(), groups)
					}
				}
			})
		}
	}
}

// BenchmarkHashJoin measures the equi join's build and probe: 200 000
// probe rows against 1 000 and 100 000 build rows, each probe row
// matching one build row.
func BenchmarkHashJoin(b *testing.B) {
	const probe = 200_000
	for _, build := range []int{1_000, 100_000} {
		eng := sqlengine.New("join-bench", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
		f := data.NewTable("f", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "n", Kind: data.KindInt}})
		for i := 0; i < probe; i++ {
			if err := f.AppendRow(data.Int(int64(i*7919%build)), data.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		d := data.NewTable("d", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "w", Kind: data.KindFloat}})
		for i := 0; i < build; i++ {
			if err := d.AppendRow(data.Int(int64(i)), data.Float(float64(i)/2)); err != nil {
				b.Fatal(err)
			}
		}
		eng.Catalog.PutTable(f)
		eng.Catalog.PutTable(d)
		b.Run(fmt.Sprintf("build=%d", build), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query("SELECT f.n, d.w FROM f JOIN d ON f.k = d.k")
				if err != nil {
					b.Fatal(err)
				}
				if res.NumRows() != probe {
					b.Fatalf("%d rows, want %d", res.NumRows(), probe)
				}
			}
		})
	}
}
