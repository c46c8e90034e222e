package sqlengine_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// keyEngines are the splits a key test runs under: morsel sizes 1, 7
// and 2048 at Parallelism 1 and 2.
func keyEngines(tables ...*data.Table) map[string]*sqlengine.Engine {
	out := map[string]*sqlengine.Engine{}
	for _, size := range []int{1, 7, 2048} {
		for _, par := range []int{1, 2} {
			eng := sqlengine.New("keys", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			eng.Parallelism, eng.MorselSize = par, size
			for _, t := range tables {
				eng.Catalog.PutTable(t)
			}
			out[fmt.Sprintf("par=%d size=%d", par, size)] = eng
		}
	}
	return out
}

// groupKeyEqual is the group-key equality the engine keeps: NULL groups
// with NULL, NaN with NaN and −0.0 with 0.0; otherwise values of a
// column's one kind are equal when they are.
func groupKeyEqual(a, b data.Value) bool {
	switch {
	case a.IsNull() || b.IsNull():
		return a.IsNull() && b.IsNull()
	case a.Kind == data.KindFloat && math.IsNaN(a.F):
		return math.IsNaN(b.F)
	case a.Kind == data.KindFloat:
		return a.F == b.F
	}
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S
}

// TestGroupKeyEquality pins what makes two group keys one group, and the
// order groups come out in: the first occurrence of each over the input,
// however the morsels split it. NULL groups with NULL, NaN with NaN, and
// −0.0 with 0.0 under the spelling of the group's first row; a key
// column keeps its kind.
func TestGroupKeyEquality(t *testing.T) {
	ints := []data.Value{data.Int(1), data.Null, data.Int(2), data.Null, data.Int(-1)}
	floats := []data.Value{data.Float(math.Copysign(0, -1)), data.Float(math.NaN()), data.Float(1.5),
		data.Float(0), data.Null, data.Float(math.Float64frombits(0x7ff8000000000001)), data.Float(2)}
	strs := []data.Value{data.Str("a"), data.Null, data.Str("")}
	tbl := data.NewTable("t", data.Schema{{Name: "ki", Kind: data.KindInt}, {Name: "kf", Kind: data.KindFloat},
		{Name: "ks", Kind: data.KindString}, {Name: "v", Kind: data.KindInt}})
	const n = 60
	for i := 0; i < n; i++ {
		_ = tbl.AppendRow(ints[i%len(ints)], floats[i%len(floats)], strs[i%len(strs)], data.Int(int64(i)))
	}
	// want groups the rows by the columns cols, serially and naively:
	// each group's key is its first row's, and it counts and sums v.
	want := func(cols ...int) [][]data.Value {
		var groups [][]data.Value
		for r := 0; r < n; r++ {
			row := tbl.Chunk().Row(r)
			g := -1
			for gi, grp := range groups {
				same := true
				for k, c := range cols {
					same = same && groupKeyEqual(grp[k], row[c])
				}
				if same {
					g = gi
					break
				}
			}
			if g < 0 {
				key := make([]data.Value, 0, len(cols)+2)
				for _, c := range cols {
					key = append(key, row[c])
				}
				groups, g = append(groups, append(key, data.Int(0), data.Int(0))), len(groups)
			}
			grp := groups[g]
			grp[len(cols)].I++
			grp[len(cols)+1].I += row[3].I
		}
		return groups
	}
	cases := []struct {
		sql   string
		cols  []int
		kinds []data.Kind
		aggs  bool // COUNT(*) and SUM(v) follow the keys
	}{
		{"SELECT ki, COUNT(*), SUM(v) FROM t GROUP BY ki", []int{0}, []data.Kind{data.KindInt}, true},
		{"SELECT kf, COUNT(*), SUM(v) FROM t GROUP BY kf", []int{1}, []data.Kind{data.KindFloat}, true},
		{"SELECT ks, COUNT(*), SUM(v) FROM t GROUP BY ks", []int{2}, []data.Kind{data.KindString}, true},
		{"SELECT ki, kf, ks, COUNT(*), SUM(v) FROM t GROUP BY ki, kf, ks", []int{0, 1, 2},
			[]data.Kind{data.KindInt, data.KindFloat, data.KindString}, true},
		{"SELECT DISTINCT kf FROM t", []int{1}, []data.Kind{data.KindFloat}, false},
		{"SELECT DISTINCT ki, kf, ks FROM t", []int{0, 1, 2}, []data.Kind{data.KindInt, data.KindFloat, data.KindString}, false},
		{"SELECT kf FROM t UNION SELECT kf FROM t", []int{1}, []data.Kind{data.KindFloat}, false},
	}
	// The float groups, spelled out: −0.0 keeps its sign and takes 0.0's
	// rows, and both NaNs are one group.
	fl := want(1)
	if len(fl) != 5 || math.Float64bits(fl[0][0].F) != 1<<63 || !math.IsNaN(fl[1][0].F) || !fl[3][0].IsNull() {
		t.Fatalf("reference float groups %v", fl)
	}
	for label, eng := range keyEngines(tbl) {
		for _, c := range cases {
			res, err := eng.Query(c.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", label, c.sql, err)
			}
			exp := want(c.cols...)
			if res.NumRows() != len(exp) {
				t.Fatalf("%s %s: %d groups, want %d", label, c.sql, res.NumRows(), len(exp))
			}
			for k, kind := range c.kinds {
				if res.Cols[k].Kind != kind {
					t.Errorf("%s %s: key column %d is %s, want %s", label, c.sql, k, res.Cols[k].Kind, kind)
				}
			}
			for g, row := range exp {
				if !c.aggs {
					row = row[:len(c.cols)]
				}
				for ci, w := range row {
					got := res.Cols[ci].Get(g)
					same := got.Kind == w.Kind && got.I == w.I && got.S == w.S &&
						(math.Float64bits(got.F) == math.Float64bits(w.F) || math.IsNaN(got.F) && math.IsNaN(w.F))
					if !same {
						t.Fatalf("%s %s: group %d column %d = %v, want %v", label, c.sql, g, ci, got, w)
					}
				}
			}
		}
	}
}

// rowStrings renders a result's rows, sorted: its row multiset.
func rowStrings(res *data.Table) []string {
	out := make([]string, res.NumRows())
	for r := range out {
		for c, col := range res.Cols {
			if c > 0 {
				out[r] += "|"
			}
			out[r] += col.Get(r).Repr()
		}
	}
	sort.Strings(out)
	return out
}

// TestJoinKeyEquality: a hash equi-join's key equality is the engine's
// own =, which a residual ON spelling (a.k = b.k + 0) runs through the
// comparison kernel: NULL and NaN match nothing, −0.0 matches 0.0, and an
// int matches a float of its value. A LEFT join pads a left row whose key
// matches nothing; an inner join and its comma-WHERE spelling drop it.
func TestJoinKeyEquality(t *testing.T) {
	table := func(name, key, val string, kind data.Kind, rows ...[2]data.Value) *data.Table {
		tbl := data.NewTable(name, data.Schema{{Name: key, Kind: kind}, {Name: val, Kind: data.KindInt}})
		for _, r := range rows {
			_ = tbl.AppendRow(r[0], r[1])
		}
		return tbl
	}
	I, F, N := data.Int, data.Float, data.Null
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := []struct {
		name string
		a, b *data.Table
		want map[string][]string // by join spelling, when spelled out
	}{
		{"null keys",
			table("a", "k", "x", data.KindInt, [2]data.Value{N, I(1)}, [2]data.Value{I(2), I(2)}),
			table("b", "k", "y", data.KindInt, [2]data.Value{N, I(10)}, [2]data.Value{I(2), I(20)}),
			map[string][]string{"inner": {"2|20"}, "comma": {"2|20"}, "left": {"1|None", "2|20"}}},
		{"float keys",
			table("a", "k", "x", data.KindFloat, [2]data.Value{F(nan), I(1)}, [2]data.Value{F(2), I(2)}, [2]data.Value{F(negZero), I(3)}),
			table("b", "k", "y", data.KindFloat, [2]data.Value{F(nan), I(10)}, [2]data.Value{F(2), I(20)}, [2]data.Value{F(0), I(30)}),
			map[string][]string{"inner": {"2|20", "3|30"}, "left": {"1|None", "2|20", "3|30"}}},
		{"int against float",
			table("a", "k", "x", data.KindInt, [2]data.Value{I(2), I(1)}, [2]data.Value{I(1<<53 + 1), I(2)}, [2]data.Value{N, I(3)}, [2]data.Value{I(0), I(4)}),
			table("b", "k", "y", data.KindFloat, [2]data.Value{F(2), I(10)}, [2]data.Value{F(1 << 53), I(20)}, [2]data.Value{F(nan), I(30)}, [2]data.Value{F(negZero), I(40)}, [2]data.Value{F(2.5), I(50)}),
			map[string][]string{"inner": {"1|10", "2|20", "4|40"}}},
		{"duplicate keys",
			table("a", "k", "x", data.KindInt, [2]data.Value{I(1), I(1)}, [2]data.Value{I(1), I(2)}, [2]data.Value{N, I(3)}, [2]data.Value{I(7), I(4)}),
			table("b", "k", "y", data.KindInt, [2]data.Value{I(1), I(10)}, [2]data.Value{N, I(20)}, [2]data.Value{I(1), I(30)}),
			map[string][]string{"inner": {"1|10", "1|30", "2|10", "2|30"}, "left": {"1|10", "1|30", "2|10", "2|30", "3|None", "4|None"}}},
	}
	spell := map[string][2]string{ // the hash join's spelling, and the residual one
		"inner": {"SELECT a.x, b.y FROM a JOIN b ON a.k = b.k", "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k + 0"},
		"comma": {"SELECT a.x, b.y FROM a, b WHERE a.k = b.k", "SELECT a.x, b.y FROM a, b WHERE a.k = b.k + 0"},
		"left":  {"SELECT a.x, b.y FROM a LEFT JOIN b ON a.k = b.k", "SELECT a.x, b.y FROM a LEFT JOIN b ON a.k = b.k + 0"},
	}
	for _, c := range cases {
		for label, eng := range keyEngines(c.a, c.b) {
			for form, sqls := range spell {
				var got [2][]string
				for i, sql := range sqls {
					res, err := eng.Query(sql)
					if err != nil {
						t.Fatalf("%s %s: %s: %v", c.name, label, sql, err)
					}
					got[i] = rowStrings(res)
				}
				if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
					t.Errorf("%s %s: %s gives %v, %s gives %v", c.name, label, sqls[0], got[0], sqls[1], got[1])
				}
				if w, ok := c.want[form]; ok && fmt.Sprint(got[1]) != fmt.Sprint(w) {
					t.Errorf("%s %s: %s gives %v, want %v", c.name, label, sqls[1], got[1], w)
				}
			}
		}
	}
}

// TestAvgIndependentOfSplit: AVG over ints sums exactly, as SUM does, and
// divides once, so its answer does not depend on where the morsels split
// the input.
func TestAvgIndependentOfSplit(t *testing.T) {
	tbl := data.NewTable("a", data.Schema{{Name: "g", Kind: data.KindInt}, {Name: "v", Kind: data.KindInt}})
	for _, v := range []int64{1 << 53, 1, 1, 1, 1 << 53, 3} {
		_ = tbl.AppendRow(data.Int(v%2), data.Int(v))
	}
	var first []string
	for _, size := range []int{0, 1, 2, 3} {
		for _, par := range []int{1, 2} {
			eng := sqlengine.New("avg", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			eng.Parallelism, eng.MorselSize = par, size
			eng.Catalog.PutTable(tbl)
			var got []string
			for _, sql := range []string{"SELECT AVG(v) FROM a", "SELECT g, AVG(v) FROM a GROUP BY g"} {
				res, err := eng.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < res.NumRows(); r++ {
					v := res.Cols[len(res.Cols)-1].Get(r)
					got = append(got, fmt.Sprintf("%x", math.Float64bits(v.F)))
				}
			}
			if first == nil {
				first = got
			} else if fmt.Sprint(got) != fmt.Sprint(first) {
				t.Errorf("par=%d size=%d: AVG bits %v, at par=1 size=0 %v", par, size, got, first)
			}
		}
	}
}

// TestTypedMinMaxMatchesOutranks pins the unboxed MIN/MAX fold of an int,
// float or string argument to data.Outranks, the boxed rule the barrier
// merges morsels' winners by: NULLs are skipped, a NaN loses to every
// other value, and a tie (−0.0 against 0.0 too) keeps the first. The
// want is that rule folded over the rows in order.
func TestTypedMinMaxMatchesOutranks(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pools := [][]data.Value{
		{data.Float(negZero), data.Float(nan), data.Null, data.Float(0), data.Float(-1.5), data.Float(math.Inf(1)), data.Float(0)},
		{data.Int(3), data.Null, data.Int(math.MinInt64), data.Int(3), data.Int(math.MaxInt64), data.Int(-2)},
		{data.Str("b"), data.Null, data.Str(""), data.Str("b"), data.Str("ab")},
	}
	tbl := data.NewTable("t", data.Schema{{Name: "g", Kind: data.KindInt}, {Name: "f", Kind: data.KindFloat},
		{Name: "n", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
	var rows [][]data.Value
	for i, x := 0, uint32(7); i < 50; i++ {
		row := []data.Value{data.Int(int64(i % 5))}
		for _, pool := range pools {
			x = x*1103515245 + 12345
			v := pool[int(x>>16)%len(pool)]
			switch float := pool[0].Kind == data.KindFloat; {
			case i%5 == 3: // a group of NULLs only
				v = data.Null
			case i%5 == 2 && float && i < 30: // a group whose first values are NaN
				v = data.Float(nan)
			case i%5 == 4 && float: // a group of signed zeros and NaNs: ties
				v = []data.Value{data.Float(negZero), data.Float(nan), data.Float(0)}[i%3]
			}
			row = append(row, v)
		}
		rows = append(rows, row)
		_ = tbl.AppendRow(row...)
	}
	render := func(v data.Value) string {
		if v.Kind == data.KindFloat && !math.IsNaN(v.F) {
			return fmt.Sprintf("%x", math.Float64bits(v.F)) // tells −0.0 from 0.0
		}
		return v.Repr()
	}
	var want []string
	for g := 0; g < 5; g++ {
		line := fmt.Sprint(g)
		for c := 1; c <= 3; c++ {
			for _, max := range []bool{false, true} {
				best := data.Null
				for _, row := range rows {
					if v := row[c]; row[0].I == int64(g) && !v.IsNull() && (best.IsNull() || data.Outranks(v, best, max)) {
						best = v
					}
				}
				line += "|" + render(best)
			}
		}
		want = append(want, line)
	}
	const sql = "SELECT g, MIN(f), MAX(f), MIN(n), MAX(n), MIN(s), MAX(s) FROM t GROUP BY g"
	for _, size := range []int{0, 1, 7} {
		for _, par := range []int{1, 2} {
			eng := sqlengine.New("minmax", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			eng.Parallelism, eng.MorselSize = par, size
			eng.Catalog.PutTable(tbl)
			res, err := eng.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for r := 0; r < res.NumRows(); r++ {
				line := fmt.Sprint(res.Cols[0].Get(r).I)
				for _, col := range res.Cols[1:] {
					line += "|" + render(col.Get(r))
				}
				got = append(got, line)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("par=%d size=%d: got %v, want %v", par, size, got, want)
			}
		}
	}
}
