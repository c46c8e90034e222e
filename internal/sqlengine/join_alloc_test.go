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
// output cell, and no per-morsel part copied a second time.
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
	const sql = "SELECT f.n, f.s, d.w FROM f JOIN d ON f.k = d.k"
	for _, par := range []int{1, 2} {
		eng := sqlengine.New("alloc", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
		eng.Parallelism = par
		eng.Catalog.PutTable(f)
		eng.Catalog.PutTable(d)
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := eng.Query(sql)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 50000 {
			t.Fatalf("par=%d: %d rows, want 50000", par, res.NumRows())
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(payloadBytes(res))
		t.Logf("par=%d: allocated %.1f× the result's payload", par, ratio)
		if ratio > 4 {
			t.Errorf("par=%d: allocated %.1f× the result's payload, want at most 4×", par, ratio)
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
