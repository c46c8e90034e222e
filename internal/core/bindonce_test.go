package core_test

import (
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
)

// The loops keep both UDFs opaque to the relational inliner, so every
// call crosses into the UDF runtime.
const (
	bindF1 = `
@scalarudf
def f(n: int) -> int:
    s = n
    for i in range(1):
        s = s + 1
    return s

@scalarudf
def g(x: int) -> int:
    s = 0
    for i in range(10):
        s = s + x
    return s
`
	bindF2 = `
@scalarudf
def f(n: int) -> int:
    s = n
    for i in range(1):
        s = s + 100
    return s
`
)

// TestPlanRunsBoundDefinitions: a plan runs the UDF definitions its
// planner bound. f is redefined between Process and Execute; every row —
// the bare call f(n) and the fused chain g(f(n)) alike — must still come
// from the definition the plan was built with (f(n) = n+1).
func TestPlanRunsBoundDefinitions(t *testing.T) {
	scalarOnly := core.DefaultOptions()
	scalarOnly.ScalarOnly = true
	for _, c := range []struct {
		name string
		opts core.Options
	}{{"scalar-only", scalarOnly}, {"default", core.DefaultOptions()}} {
		t.Run(c.name, func(t *testing.T) {
			eng := sqlengine.New("monet", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
			tb := data.NewTable("t", data.Schema{{Name: "n", Kind: data.KindInt}})
			for i := int64(0); i < 16; i++ {
				if err := tb.AppendRow(data.Int(i)); err != nil {
					t.Fatal(err)
				}
			}
			eng.Catalog.PutTable(tb)
			reg := core.NewRegistry(4)
			define := func(src string) {
				t.Helper()
				if err := reg.Define(src); err != nil {
					t.Fatal(err)
				}
				reg.Attach(eng)
			}
			define(bindF1)
			qf := core.New(reg)
			qf.Opts = c.opts

			q, rep, err := qf.Process(eng, "SELECT n, f(n) AS a, g(f(n)) AS b FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sections == 0 {
				t.Fatalf("nothing fused:\n%s", q.Explain())
			}
			define(bindF2)
			res, err := eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != tb.NumRows() {
				t.Fatalf("%d rows, want %d", res.NumRows(), tb.NumRows())
			}
			for i := 0; i < res.NumRows(); i++ {
				n, a, b := res.Cols[0].Get(i).I, res.Cols[1].Get(i).I, res.Cols[2].Get(i).I
				if a != n+1 || b != (n+1)*10 {
					t.Fatalf("row n=%d: a=%d b=%d, want a=%d b=%d (the bound definition of f)\n%s",
						n, a, b, n+1, (n+1)*10, q.Explain())
				}
			}
		})
	}
}
