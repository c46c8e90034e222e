package data

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndTruthiness(t *testing.T) {
	cases := []struct {
		v      Value
		truthy bool
	}{
		{Null, false},
		{Bool(false), false},
		{Bool(true), true},
		{Int(0), false},
		{Int(-3), true},
		{Float(0), false},
		{Float(0.5), true},
		{Str(""), false},
		{Str("x"), true},
		{NewList(nil), false},
		{NewList([]Value{Int(1)}), true},
		{NewDict(), false},
	}
	for i, c := range cases {
		if c.v.Truthy() != c.truthy {
			t.Errorf("case %d: Truthy(%v) = %v", i, c.v, c.v.Truthy())
		}
	}
}

func TestEqualNumericPromotion(t *testing.T) {
	if !Equal(Int(1), Float(1.0)) {
		t.Error("1 != 1.0")
	}
	if !Equal(Bool(true), Int(1)) {
		t.Error("True != 1")
	}
	if Equal(Str("1"), Int(1)) {
		t.Error("'1' == 1")
	}
	if !Equal(Null, Null) {
		t.Error("NULL != NULL under Equal")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{NewList([]Value{Int(1)}), NewList([]Value{Int(1), Int(0)}), -1},
	}
	for i, c := range cases {
		got, ok := Compare(c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("case %d: Compare(%v,%v) = %d,%v want %d", i, c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := Compare(Str("x"), Int(1)); ok {
		t.Error("string vs int should be incomparable")
	}
}

func TestKeyDistinguishesValues(t *testing.T) {
	vals := []Value{
		Null, Bool(true), Int(1), Int(2), Float(2.5), Str(""), Str("a"),
		Str("ab"), NewList(nil), NewList([]Value{Int(1)}),
		NewList([]Value{Str("1")}),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup && !Equal(prev, v) {
			t.Errorf("key collision: %v and %v -> %q", prev, v, k)
		}
		seen[k] = v
	}
	// Python-style: 1, 1.0 and True share a hash key.
	if Int(1).Key() != Float(1.0).Key() || Int(1).Key() != Bool(true).Key() {
		t.Error("1, 1.0, True should share a key")
	}
}

func TestDictOrderAndOps(t *testing.T) {
	d := NewDict()
	dd := d.Dict()
	dd.Set("b", Int(2))
	dd.Set("a", Int(1))
	dd.Set("b", Int(3)) // update keeps position
	if len(dd.Keys) != 2 || dd.Keys[0] != "b" || dd.Keys[1] != "a" {
		t.Fatalf("keys = %v", dd.Keys)
	}
	if v, ok := dd.Get("b"); !ok || v.I != 3 {
		t.Fatalf("get b = %v", v)
	}
	if !dd.Delete("b") || dd.Len() != 1 {
		t.Fatal("delete failed")
	}
	if dd.Delete("zz") {
		t.Fatal("deleted missing key")
	}
}

func randValue(r *rand.Rand, depth int) Value {
	switch n := r.Intn(7); {
	case n == 0:
		return Null
	case n == 1:
		return Bool(r.Intn(2) == 1)
	case n == 2:
		return Int(r.Int63n(1<<40) - (1 << 39))
	case n == 3:
		return Float(math.Round(r.Float64()*1e6) / 100)
	case n == 4 || depth <= 0:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return Str(string(b))
	case n == 5:
		items := make([]Value, r.Intn(4))
		for i := range items {
			items[i] = randValue(r, depth-1)
		}
		return NewList(items)
	default:
		d := NewDict()
		dd := d.Dict()
		for i := 0; i < r.Intn(4); i++ {
			dd.Set(string(rune('a'+i)), randValue(r, depth-1))
		}
		return d
	}
}

// TestJSONRoundTripProperty: marshal → unmarshal is identity for every
// JSON-representable value.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r, 3)
		s := MarshalJSONValue(v)
		back, err := UnmarshalJSONValue(s)
		if err != nil {
			t.Logf("unmarshal %q: %v", s, err)
			return false
		}
		if !Equal(v, back) {
			t.Logf("round trip %v -> %q -> %v", v, s, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestColumnRoundTripProperty: AppendValue → Get is identity per kind.
func TestColumnRoundTripProperty(t *testing.T) {
	kinds := []Kind{KindInt, KindFloat, KindBool, KindString, KindList, KindDict}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kind := kinds[r.Intn(len(kinds))]
		col := NewColumn("c", kind)
		var want []Value
		for i := 0; i < 20; i++ {
			var v Value
			switch kind {
			case KindInt:
				v = Int(r.Int63n(1000))
			case KindFloat:
				v = Float(float64(r.Intn(1000)) / 4)
			case KindBool:
				v = Bool(r.Intn(2) == 1)
			case KindString:
				v = Str(string(rune('a' + r.Intn(26))))
			case KindList:
				v = NewList([]Value{Int(int64(i)), Str("x")})
			case KindDict:
				d := NewDict()
				d.Dict().Set("k", Int(int64(i)))
				v = d
			}
			if r.Intn(5) == 0 {
				v = Null
			}
			col.AppendValue(v)
			want = append(want, v)
		}
		for i, w := range want {
			if !Equal(col.Get(i), w) {
				t.Logf("kind %v row %d: got %v want %v", kind, i, col.Get(i), w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestColumnTakeSliceAppend(t *testing.T) {
	c := NewColumn("x", KindInt)
	for i := int64(0); i < 10; i++ {
		c.AppendInt(i * 10)
	}
	c.AppendNull()
	taken := c.Take([]int{0, 5, 10})
	if taken.Len() != 3 || taken.Ints[1] != 50 || !taken.IsNull(2) {
		t.Fatalf("take: %v nulls=%v", taken.Ints, taken.Nulls)
	}
	sl := c.Slice(2, 5)
	if sl.Len() != 3 || sl.Ints[0] != 20 {
		t.Fatalf("slice: %v", sl.Ints)
	}
	dst := NewColumn("y", KindInt)
	dst.AppendColumn(taken)
	dst.AppendColumn(sl)
	if dst.Len() != 6 || !dst.IsNull(2) || dst.IsNull(3) {
		t.Fatalf("append: len=%d", dst.Len())
	}
}

// TestTakeGather: Take and TakeInto are one gather. An index of -1 makes
// a NULL row, the source's null mask travels with its rows, and string
// and list payloads gather like the scalar ones.
func TestTakeGather(t *testing.T) {
	ints := NewColumn("i", KindInt)
	ints.AppendInt(7)
	ints.AppendNull()
	ints.AppendInt(9)
	got := ints.Take([]int{2, -1, 1, 0})
	if got.Len() != 4 || got.Ints[0] != 9 || got.Ints[3] != 7 {
		t.Fatalf("ints: %v", got.Ints)
	}
	if fmt.Sprint(got.Nulls) != "[false true true false]" {
		t.Fatalf("ints nulls: %v", got.Nulls)
	}

	strs := NewColumn("s", KindString)
	strs.AppendStr("a")
	strs.AppendStr("b")
	if got := strs.Take([]int{1, 1, 0}); got.Nulls != nil || fmt.Sprint(got.Strs) != "[b b a]" {
		t.Fatalf("no -1 and no source mask must leave no mask: %v %v", got.Strs, got.Nulls)
	}
	if got := strs.Take([]int{-1, 0}); !got.IsNull(0) || got.IsNull(1) || got.Strs[1] != "a" {
		t.Fatalf("strings with -1: %v %v", got.Strs, got.Nulls)
	}

	list := NewColumn("l", KindList)
	list.AppendValue(NewList([]Value{Int(1), Int(2)}))
	list.AppendNull()
	got = list.Take([]int{-1, 1, 0})
	if got.Kind != KindList || !got.IsNull(0) || !got.IsNull(1) || !Equal(got.Get(2), list.Get(0)) {
		t.Fatalf("list: %v %v", got.Strs, got.Nulls)
	}

	// TakeInto fills a range of a preallocated column and nothing else.
	dst := NewColumnLen("d", KindInt, 5, true)
	ints.TakeInto(dst, 2, []int{0, 1, -1})
	if fmt.Sprint(dst.Ints) != "[0 0 7 0 0]" || fmt.Sprint(dst.Nulls) != "[false false false true true]" {
		t.Fatalf("into: %v %v", dst.Ints, dst.Nulls)
	}
	// CopyInto writes a whole column at an offset; a source without a
	// mask writes non-NULL rows.
	ints.CopyInto(dst, 0)
	strs.CopyInto(NewColumnLen("s", KindString, 2, false), 0)
	nomask := NewColumnLen("n", KindInt, 1, false)
	nomask.Ints[0] = 4
	nomask.CopyInto(dst, 4)
	if fmt.Sprint(dst.Ints) != "[7 0 9 0 4]" || fmt.Sprint(dst.Nulls) != "[false true false true false]" {
		t.Fatalf("copy into: %v %v", dst.Ints, dst.Nulls)
	}
}

// TestOutranksIsOrderFree: a MIN or MAX fold under Outranks gives one
// answer whatever order its values come in, NaN among them, so morsel
// partials merge to the serial answer. A NaN wins only a group of NaNs.
func TestOutranksIsOrderFree(t *testing.T) {
	nan := Float(math.NaN())
	fold := func(vs []Value, max bool) Value {
		best := Null
		for _, v := range vs {
			if v.IsNull() {
				continue // an empty partial
			}
			if best.IsNull() || Outranks(v, best, max) {
				best = v
			}
		}
		return best
	}
	r := rand.New(rand.NewSource(1))
	vs := []Value{Float(1), nan, Float(5), Float(-2), nan, Int(3)}
	for i := 0; i < 200; i++ {
		r.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		split := r.Intn(len(vs) + 1)
		for _, c := range []struct {
			max  bool
			want float64
		}{{false, -2}, {true, 5}} {
			whole := fold(vs, c.max)
			merged := fold([]Value{fold(vs[:split], c.max), fold(vs[split:], c.max)}, c.max)
			for _, got := range []Value{whole, merged} {
				if f, _ := got.AsFloat(); f != c.want {
					t.Fatalf("%v split at %d, max=%v: got %v, want %v", vs, split, c.max, got, c.want)
				}
			}
		}
	}
	if got := fold([]Value{nan, nan}, true); !got.isNaN() {
		t.Errorf("MAX of NaNs: got %v, want NaN", got)
	}
}

// TestConcat: one exactly sized chunk of the parts' rows in order; a
// part without a null mask contributes non-NULL rows, zero-row parts
// contribute nothing, and a part whose rows live in another slice
// panics as AppendColumn does.
func TestConcat(t *testing.T) {
	schema := Schema{{Name: "x", Kind: KindInt}, {Name: "s", Kind: KindString}}
	part := func(rows ...Value) *Chunk {
		tbl := NewTable("p", schema)
		for i := 0; i+1 < len(rows); i += 2 {
			if err := tbl.AppendRow(rows[i], rows[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		return tbl.Chunk()
	}
	a := part(Int(1), Str("a"), Int(2), Str("b"))
	b := part(Null, Str("c"))
	out := Concat(schema, []*Chunk{a, part(), b, part()})
	if out.NumRows() != 3 || cap(out.Cols[0].Ints) != 3 || cap(out.Cols[1].Strs) != 3 {
		t.Fatalf("rows=%d caps=%d,%d", out.NumRows(), cap(out.Cols[0].Ints), cap(out.Cols[1].Strs))
	}
	if fmt.Sprint(out.Cols[0].Ints, out.Cols[0].Nulls) != "[1 2 0] [false false true]" {
		t.Fatalf("ints: %v %v", out.Cols[0].Ints, out.Cols[0].Nulls)
	}
	if fmt.Sprint(out.Cols[1].Strs) != "[a b c]" || out.Cols[1].Nulls != nil || out.Cols[1].Name != "s" {
		t.Fatalf("strings: %v %v", out.Cols[1].Strs, out.Cols[1].Nulls)
	}
	if empty := Concat(schema, []*Chunk{part()}); empty.NumRows() != 0 || len(empty.Cols) != 2 {
		t.Fatalf("zero-row concat: %d rows, %d cols", empty.NumRows(), len(empty.Cols))
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "float") || !strings.Contains(msg, "int") {
			t.Errorf("panic %q does not name both kinds", msg)
		}
	}()
	Concat(Schema{{Name: "f", Kind: KindFloat}, {Name: "s", Kind: KindString}}, []*Chunk{a})
}

// TestAppendColumnRefusesOtherPayload: appending a column whose rows live
// in another slice panics with both kinds named, instead of appending
// nothing; string, list and dict columns share Strs and append freely.
func TestAppendColumnRefusesOtherPayload(t *testing.T) {
	ints := NewColumn("i", KindInt)
	ints.AppendInt(1)
	floats := NewColumn("f", KindFloat)
	floats.AppendFloat(0.5)
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "float") || !strings.Contains(msg, "int") {
				t.Errorf("panic %q does not name both kinds", msg)
			}
		}()
		ints.AppendColumn(floats)
	}()
	if ints.Len() != 1 {
		t.Fatalf("refused append changed the column: %d rows", ints.Len())
	}
	list := NewColumn("l", KindList)
	list.AppendValue(NewList([]Value{Int(1)}))
	strs := NewColumn("s", KindString)
	strs.AppendColumn(list)
	if strs.Len() != 1 || strs.Strs[0] != list.Strs[0] {
		t.Fatalf("string column did not take the list column's rows: %v", strs.Strs)
	}
}

func TestTableAndChunk(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}})
	if err := tbl.AppendRow(Int(1), Str("x")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Int(2), Str("y")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Int(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	ch := tbl.Chunk()
	if ch.NumRows() != 2 || ch.Col("b").Strs[1] != "y" {
		t.Fatal("chunk mismatch")
	}
	row := ch.Row(0)
	if row[0].I != 1 || row[1].S != "x" {
		t.Fatalf("row = %v", row)
	}
	if tbl.Col("missing") != nil {
		t.Fatal("found missing column")
	}
	if tbl.Schema.IndexOf("B") != 1 {
		t.Fatal("schema lookup should be case-insensitive")
	}
}

// TestEncodeDecodeProperty: the binary wire codec round-trips chunks.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		ints := NewColumn("i", KindInt)
		strs := NewColumn("s", KindString)
		floats := NewColumn("f", KindFloat)
		bools := NewColumn("b", KindBool)
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				ints.AppendNull()
			} else {
				ints.AppendInt(r.Int63() - (1 << 62))
			}
			strs.AppendStr(string(make([]byte, r.Intn(20))))
			floats.AppendFloat(r.NormFloat64() * 1e3)
			bools.AppendBool(r.Intn(2) == 1)
		}
		ch := NewChunk(ints, strs, floats, bools)
		var buf bytes.Buffer
		if err := EncodeChunk(&buf, ch); err != nil {
			return false
		}
		back, err := DecodeChunk(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if back.NumRows() != n || len(back.Cols) != 4 {
			return false
		}
		for ci := range ch.Cols {
			for i := 0; i < n; i++ {
				if !Equal(ch.Cols[ci].Get(i), back.Cols[ci].Get(i)) {
					return false
				}
			}
			if back.Cols[ci].Name != ch.Cols[ci].Name || back.Cols[ci].Kind != ch.Cols[ci].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeTable(t *testing.T) {
	tbl := NewTable("people", Schema{{Name: "id", Kind: KindInt}, {Name: "n", Kind: KindString}})
	_ = tbl.AppendRow(Int(7), Str("ada"))
	var buf bytes.Buffer
	if err := EncodeTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "people" || back.NumRows() != 1 || back.Cols[1].Strs[0] != "ada" {
		t.Fatalf("decoded %+v", back)
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"INT": KindInt, "text": KindString, "double": KindFloat,
		"json": KindList, "bool": KindBool, "map": KindDict,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestSortValuesStable(t *testing.T) {
	vs := []Value{Int(3), Int(1), Null, Int(2)}
	SortValues(vs)
	if !vs[0].IsNull() || vs[1].I != 1 || vs[2].I != 2 || vs[3].I != 3 {
		t.Errorf("sorted = %v", vs)
	}
	// Mixed incomparable values must not panic and comparable runs stay
	// ordered.
	mixed := []Value{Str("b"), Str("a"), Int(5)}
	SortValues(mixed)
	ia := indexOfValue(mixed, Str("a"))
	ib := indexOfValue(mixed, Str("b"))
	if ia > ib {
		t.Errorf("strings out of order: %v", mixed)
	}
}

func indexOfValue(vs []Value, v Value) int {
	for i, x := range vs {
		if Equal(x, v) {
			return i
		}
	}
	return -1
}

func TestValueStringRepr(t *testing.T) {
	if Float(2).String() != "2.0" {
		t.Errorf("Float(2) = %q", Float(2).String())
	}
	if Str("hi").Repr() != `"hi"` {
		t.Errorf("repr = %q", Str("hi").Repr())
	}
	l := NewList([]Value{Int(1), Str("a")})
	if l.String() != `[1, "a"]` {
		t.Errorf("list = %q", l.String())
	}
	if !reflect.DeepEqual(Null.String(), "None") {
		t.Error("null repr")
	}
}
