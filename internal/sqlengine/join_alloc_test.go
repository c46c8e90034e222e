package sqlengine_test

import (
	"fmt"
	"runtime"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// TestJoinAllocationBound: an equi join allocates within a small multiple
// of its result's payload. Each morsel lists its (left row, right row)
// pairs, and the output columns are typed gathers from those lists into
// one preallocated chunk — no boxed value, no append-grown column per
// output cell, and no per-morsel part copied a second time. An aggregate
// above a join or a filter reads their row lists, gathering only the
// columns it reads into scratch that its morsels reuse, and a join keeps
// only the row lists of the sides its parent reads.
func TestJoinAllocationBound(t *testing.T) {
	f := data.NewTable("f", data.Schema{
		{Name: "k", Kind: data.KindInt},
		{Name: "n", Kind: data.KindInt},
		{Name: "s", Kind: data.KindString},
	})
	for i := 0; i < 50000; i++ {
		_ = f.AppendRow(data.Int(int64(i%1000)), data.Int(int64(i)), data.Str(fmt.Sprintf("row-%05d", i)))
	}
	d := data.NewTable("d", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "w", Kind: data.KindFloat}})
	for i := 0; i < 1000; i++ {
		_ = d.AppendRow(data.Int(int64(i)), data.Float(float64(i)/2))
	}
	const column = 8 * 50000 // one int column of the join's result
	for _, c := range []struct {
		sql     string
		max     [2]float64 // at Parallelism 1 and 2
		ofInput bool       // bounded by one int column, not the result's payload
	}{
		{"SELECT f.n, f.s, d.w FROM f JOIN d ON f.k = d.k", [2]float64{4, 4}, false},
		// The join's keys are hashed and probed, not materialized, and
		// it keeps only the left rows' list. At Parallelism 1 the
		// aggregate runs as one morsel, so its scratch for f.n and its
		// buffer of group ids hold every row (a worker's buffers hold
		// one morsel's); at 2 they hold 2 048.
		{"SELECT SUM(f.n) FROM f JOIN d ON f.k = d.k", [2]float64{3.6, 2}, true},
		// Half the rows pass: the filter's list of them, and the
		// aggregate's scratch and group ids.
		{"SELECT SUM(f.n) FROM f WHERE f.k < 500", [2]float64{2, 1.2}, true},
	} {
		for p, par := range []int{1, 2} {
			eng := sqlengine.New("alloc", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			eng.Parallelism = par
			eng.Catalog.PutTable(f)
			eng.Catalog.PutTable(d)
			if _, err := eng.Query(c.sql); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := eng.Query(c.sql)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			unit, of := float64(payloadBytes(res)), "the result's payload"
			if c.ofInput {
				unit, of = column, "one int column"
			}
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / unit
			t.Logf("%s par=%d: allocated %.1f× %s", c.sql, par, ratio, of)
			if ratio > c.max[p] {
				t.Errorf("%s par=%d: allocated %.1f× %s, want at most %g×", c.sql, par, ratio, of, c.max[p])
			}
		}
	}
}

// payloadBytes is what a result's columns hold: 8 bytes per int or float
// row, one per bool row or null-mask entry, and a string row's 16-byte
// header (a gathered string shares its bytes with the source).
func payloadBytes(t *data.Table) int {
	n := 0
	for _, c := range t.Cols {
		n += 8*(len(c.Ints)+len(c.Floats)) + len(c.Bools) + len(c.Nulls) + 16*len(c.Strs)
	}
	return n
}
