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
// output cell, and no per-morsel part copied a second time. A join whose
// parent reads few of its columns gathers only those.
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
		max     float64
		ofInput bool // bounded by one int column, not the result's payload
	}{
		{"SELECT f.n, f.s, d.w FROM f JOIN d ON f.k = d.k", 4, false},
		// The parent reads one column, so the join gathers one: its keys
		// are hashed and probed, not materialized. The rest is the two
		// pair lists and, at Parallelism 1, where the aggregate runs as
		// one morsel, its buffer of group ids (a worker's buffer holds
		// one morsel's ids).
		{"SELECT SUM(f.n) FROM f JOIN d ON f.k = d.k", 5, true},
	} {
		for _, par := range []int{1, 2} {
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
			if ratio > c.max {
				t.Errorf("%s par=%d: allocated %.1f× %s, want at most %g×", c.sql, par, ratio, of, c.max)
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
