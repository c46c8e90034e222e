package sqlengine_test

import (
	"runtime"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// TestOperatorAllocationBound: an operator allocates what it returns,
// not what it computes. The expression programs' intermediate slots
// reuse their storage from morsel to morsel, and a filter gathers its
// kept rows once into a preallocated output, so each query below
// allocates within a small multiple of one input column's payload. A
// projection that only renames columns copies none.
func TestOperatorAllocationBound(t *testing.T) {
	const rows = 100000
	tbl := data.NewTable("t", data.Schema{{Name: "n", Kind: data.KindInt}, {Name: "m", Kind: data.KindInt}})
	for i := 0; i < rows; i++ {
		m := data.Int(int64(i % 7))
		if i%100 == 0 {
			m = data.Null
		}
		_ = tbl.AppendRow(data.Int(int64(i)), m)
	}
	eng := sqlengine.New("alloc", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
	eng.Parallelism = 2
	eng.Catalog.PutTable(tbl)
	const column = 8 * rows // n's payload
	for _, c := range []struct {
		sql   string
		bound float64
	}{
		{"SELECT SUM(CASE WHEN n IS NULL THEN NULL ELSE (n*37+11)*3 - n END) FROM t", 4},
		{"SELECT n, (n*37+11)*3 - n + m FROM t", 5},
		{"SELECT n, m FROM t WHERE (n*37+11)*3 - n > 5 AND m + 1 > 2", 7},
		// Bare column references return the input's columns themselves.
		{"SELECT m, n FROM t", 0.1},
	} {
		if _, err := eng.Query(c.sql); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := eng.Query(c.sql)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / column
		t.Logf("%s: allocated %.2f× a column", c.sql, ratio)
		if ratio > c.bound {
			t.Errorf("%s: allocated %.2f× a column, want at most %g×", c.sql, ratio, c.bound)
		}
	}
}
