package sqlengine_test

import (
	"runtime"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// TestAggregateAllocationBound: an aggregate allocates its group state,
// not its input. The morsel loop borrows the expression program's
// results, which the program recycles from morsel to morsel, and writes
// its group ids into one buffer per worker, whose hash table it refills;
// what each morsel keeps is each of its groups' first row and hash, its
// partials and a copy of each group's key.
// So a grouped and a global aggregate of a computed argument over
// 200 000 rows allocate within a bound set by the number of groups per
// morsel and one morsel of scratch per worker, with no term per input
// row.
func TestAggregateAllocationBound(t *testing.T) {
	const rows, morsel = 200000, 2048
	const (
		perGroup  = 80        // one group of one morsel: its first row and hash, partials, key copy (≈ 68 B measured)
		perMorsel = 2 << 10   // the morsel's input view, frame and table headers
		scratch   = 128 << 10 // one worker: eight int columns of one morsel
	)
	tbl := data.NewTable("t", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "n", Kind: data.KindInt}})
	for i := 0; i < rows; i++ {
		_ = tbl.AppendRow(data.Int(int64(i*7919%100000)), data.Int(int64(i)))
	}
	morsels := (rows + morsel - 1) / morsel
	for _, c := range []struct {
		sql    string
		groups int
	}{
		{"SELECT k % 50 AS g, COUNT(*) AS c, SUM(n * 3 + 1) AS s FROM t GROUP BY k % 50", 50},
		{"SELECT k % 500 AS g, COUNT(*) AS c, SUM(n * 3 + 1) AS s FROM t GROUP BY k % 500", 500},
		{"SELECT SUM(n * 3 + 1) AS s, MAX(n - k) AS m FROM t", 1},
	} {
		for _, par := range []int{1, 2} {
			eng := sqlengine.New("alloc", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			eng.Parallelism, eng.MorselSize = par, morsel
			eng.Catalog.PutTable(tbl)
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
			got := after.TotalAlloc - before.TotalAlloc
			bound := uint64(morsels*(c.groups*perGroup+perMorsel) + par*scratch)
			t.Logf("%s par=%d: allocated %d B, bound %d B (%.2f bytes per input row)", c.sql, par, got, bound, float64(got)/rows)
			if got > bound {
				t.Errorf("%s par=%d: allocated %d B, want at most %d B", c.sql, par, got, bound)
			}
		}
	}
}
