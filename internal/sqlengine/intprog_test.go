package sqlengine_test

// The single-pass int-arithmetic program (evalIntProg) must be
// invisible: any query it accelerates has to produce exactly what the
// generic per-operator columnar evaluation produces — NULL strictness,
// zero-divisor NULLs, unary minus, and the fallback for mixed-kind
// trees included. These tests pin the fragment's edges; the five-way
// differential fuzzer covers the interior.

import (
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

func intProgEngine(t *testing.T) *sqlengine.Engine {
	t.Helper()
	eng := sqlengine.New("intprog", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
	tbl := data.NewTable("t", data.Schema{
		{Name: "a", Kind: data.KindInt},
		{Name: "b", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat},
	})
	_ = tbl.AppendRow(data.Int(10), data.Int(3), data.Float(1.5))
	_ = tbl.AppendRow(data.Int(-7), data.Int(0), data.Float(2.5))
	_ = tbl.AppendRow(data.Null, data.Int(4), data.Float(0))
	_ = tbl.AppendRow(data.Int(5), data.Null, data.Null)
	eng.Catalog.PutTable(tbl)
	return eng
}

func col0(t *testing.T, eng *sqlengine.Engine, sql string) []data.Value {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]data.Value, res.NumRows())
	for i := range out {
		out[i] = res.Cols[0].Get(i)
	}
	return out
}

func TestIntProgSemantics(t *testing.T) {
	eng := intProgEngine(t)
	cases := []struct {
		sql  string
		want []any // int64 values, or nil for NULL, in table order
	}{
		// Deep strict chain: one program, no intermediate vectors.
		{"SELECT (a * 37 + 11) * 3 - a FROM t", []any{int64(1133), int64(-737), nil, int64(583)}},
		// NULL in either operand nulls the row.
		{"SELECT a + b FROM t", []any{int64(13), int64(-7), nil, nil}},
		// Zero divisor -> NULL (row 2: b=0), NULL operands stay NULL.
		{"SELECT a / b FROM t", []any{int64(3), nil, nil, nil}},
		{"SELECT a % b FROM t", []any{int64(1), nil, nil, nil}},
		// Unary minus is 0 - e.
		{"SELECT -(a * 2) FROM t", []any{int64(-20), int64(14), nil, int64(-10)}},
		// Repeated subtree (what inlining produces for nested calls).
		{"SELECT (a + b) * (a + b) FROM t", []any{int64(169), int64(49), nil, nil}},
	}
	for _, c := range cases {
		got := col0(t, eng, c.sql)
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(got), len(c.want))
		}
		for i, w := range c.want {
			if w == nil {
				if !got[i].IsNull() {
					t.Errorf("%s row %d: got %v, want NULL", c.sql, i, got[i])
				}
				continue
			}
			if got[i].Kind != data.KindInt || got[i].I != w.(int64) {
				t.Errorf("%s row %d: got %v (kind %v), want %d", c.sql, i, got[i], got[i].Kind, w)
			}
		}
	}
}

// TestIntProgFallbackParity drives trees just outside the fragment
// (float column, float literal) and checks the generic path still
// answers — the program compiler must refuse, not miscompile.
func TestIntProgFallbackParity(t *testing.T) {
	eng := intProgEngine(t)
	got := col0(t, eng, "SELECT a + f FROM t")
	if got[0].Kind != data.KindFloat || got[0].F != 11.5 {
		t.Errorf("a+f row 0: got %v, want 11.5", got[0])
	}
	if !got[2].IsNull() || !got[3].IsNull() {
		t.Errorf("a+f NULL rows: got %v, %v", got[2], got[3])
	}
	got = col0(t, eng, "SELECT a + 0.5 FROM t")
	if got[0].Kind != data.KindFloat || got[0].F != 10.5 {
		t.Errorf("a+0.5 row 0: got %v, want 10.5", got[0])
	}
}
