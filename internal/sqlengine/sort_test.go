package sqlengine_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// TestSortIsStable: ORDER BY gives the order a stable sort of the input
// rows gives, with NULL first and a NaN above every other float (equal
// to a NaN, as PostgreSQL and DuckDB order it), however the rows split into runs and morsels. The keys tie
// often (four ints, seven floats), so a sort that lost the input order
// of tied rows shows in the ids.
func TestSortIsStable(t *testing.T) {
	tbl := data.NewTable("t", data.Schema{{Name: "id", Kind: data.KindInt}, {Name: "a", Kind: data.KindInt},
		{Name: "b", Kind: data.KindFloat}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 3000; i++ {
		a, b := data.Int(int64(i*7%4)), data.Float(float64(i*5%7)/2)
		switch {
		case i%11 == 0:
			a = data.Null
		case i%13 == 0:
			b = data.Float(math.NaN())
		case i%17 == 0:
			b = data.Null
		case i%19 == 0:
			b = data.Float(math.Copysign(0, -1))
		}
		_ = tbl.AppendRow(data.Int(int64(i)), a, b, data.Str(fmt.Sprintf("s%d", i*3%5)))
	}
	// cmpCol orders two rows of column c the way the test expects.
	cmpCol := func(c, x, y int) int {
		vx, vy := tbl.Cols[c].Get(x), tbl.Cols[c].Get(y)
		if vx.IsNull() || vy.IsNull() {
			return cmp.Compare(boolInt(!vx.IsNull()), boolInt(!vy.IsNull()))
		}
		switch vx.Kind {
		case data.KindInt:
			return cmp.Compare(vx.I, vy.I)
		case data.KindFloat:
			if nx, ny := math.IsNaN(vx.F), math.IsNaN(vy.F); nx || ny {
				return cmp.Compare(boolInt(nx), boolInt(ny))
			}
			return cmp.Compare(vx.F, vy.F)
		}
		return cmp.Compare(vx.S, vy.S)
	}
	type key struct {
		col  int
		desc bool
	}
	cases := []struct {
		order string
		keys  []key
	}{
		{"a", []key{{1, false}}},
		{"b DESC", []key{{2, true}}},
		{"a DESC, b", []key{{1, true}, {2, false}}},
		{"s, b DESC, a", []key{{3, false}, {2, true}, {1, false}}},
	}
	for _, c := range cases {
		want := make([]int, tbl.NumRows())
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(x, y int) int {
			for _, k := range c.keys {
				if r := cmpCol(k.col, x, y); r != 0 && k.desc {
					return -r
				} else if r != 0 {
					return r
				}
			}
			return 0
		})
		for _, par := range []int{1, 8} {
			for _, morsel := range []int{0, 7} {
				eng := sqlengine.New("sort", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
				eng.Parallelism, eng.MorselSize = par, morsel
				eng.Catalog.PutTable(tbl)
				res, err := eng.Query("SELECT id FROM t ORDER BY " + c.order)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int, res.NumRows())
				for i := range got {
					got[i] = int(res.Cols[0].Ints[i])
				}
				if !slices.Equal(got, want) {
					at := 0
					for at < len(got) && at < len(want) && got[at] == want[at] {
						at++
					}
					t.Errorf("ORDER BY %s par=%d morsel=%d: first difference at row %d of %d: got ids %s, want %s",
						c.order, par, morsel, at, len(want), window(got, at), window(want, at))
				}
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// window renders up to five ids from row at on.
func window(ids []int, at int) string {
	var b strings.Builder
	for _, id := range ids[at:min(at+5, len(ids))] {
		fmt.Fprintf(&b, "%d ", id)
	}
	return b.String()
}
