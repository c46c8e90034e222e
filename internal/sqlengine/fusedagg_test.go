package sqlengine_test

import (
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// TestFusedGlobalCountYieldsNoRegister: a fused global COUNT(*) whose
// wrapper yields rows of no column still counts them — the row count
// each morsel's crossing reports reaches the fold — serial, parallel
// and at a morsel size that splits the input unevenly.
func TestFusedGlobalCountYieldsNoRegister(t *testing.T) {
	tbl := data.NewTable("t", data.Schema{{Name: "v", Kind: data.KindInt}})
	for i := int64(0); i < 10; i++ {
		_ = tbl.AppendRow(data.Int(i))
	}
	wrap := &ffi.UDF{Name: "w", Kind: ffi.Table, RT: pylite.NewInterp(), Fused: true}
	wrap.SetTrace(ffi.Lower(&ffi.Trace{NumRegs: 1, NumIn: 1, Ops: []ffi.TraceOp{{Kind: ffi.TFilter,
		Eval: func(regs []data.Value) (data.Value, error) { return data.Bool(regs[0].I > 2), nil }}}}, false))
	for _, cfg := range [][2]int{{1, 0}, {2, 0}, {1, 3}, {2, 3}} {
		eng := sqlengine.New("count", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
		eng.Parallelism, eng.MorselSize = cfg[0], cfg[1]
		eng.Catalog.PutTable(tbl)
		scan := &sqlengine.Plan{Op: sqlengine.OpScan, Table: "t", Schema: tbl.Schema, Quals: []string{""}}
		node := &sqlengine.Plan{Op: sqlengine.OpFusedAgg, Children: []*sqlengine.Plan{scan}, UDF: wrap,
			TFArgs: []sqlengine.SQLExpr{&sqlengine.ColRef{Name: "v", Index: 0}},
			Aggs:   []sqlengine.AggSpec{{Name: "count", Star: true}},
			Schema: data.Schema{{Name: "n", Kind: data.KindInt}}, Quals: []string{""}}
		res, err := eng.Execute(&sqlengine.Query{Root: node})
		if err != nil {
			t.Fatalf("parallelism %d, morsel %d: %v", cfg[0], cfg[1], err)
		}
		if res.NumRows() != 1 || res.Cols[0].Ints[0] != 7 {
			t.Fatalf("parallelism %d, morsel %d: COUNT(*) = %v over %d rows, want 7", cfg[0], cfg[1], res.Cols[0].Get(0), res.NumRows())
		}
	}
}
