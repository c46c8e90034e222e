package engines

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// genLazyLib holds generators whose output depends on running each body
// once, lazily and to the end: table UDFs that consume their input
// generator, and an expand UDF with a side effect on module state.
const genLazyLib = `
tick_count = [0]

@scalarudf
def inc(x: int) -> int:
    return x + 1

@tableudf
def passthru(rows):
    for r in rows:
        yield r

@tableudf
def pairs(rows):
    for r in rows:
        yield r
        yield 2 * r

@expandudf
def tick(k: int):
    for i in range(2000):
        tick_count[0] += 1
        yield tick_count[0]
`

// genLazyDB launches prof over n(k) holding 1..rows and one(k) holding
// 1, with genLazyLib.
func genLazyDB(t *testing.T, prof Profile, par, rows int) *Instance {
	t.Helper()
	in := Launch(Config{Profile: prof, JIT: true, Parallelism: par})
	if err := in.Define(genLazyLib); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.UDFSpec{
		{Name: "passthru", Kind: ffi.Table, Out: []data.Kind{data.KindInt}, OutNames: []string{"x"}},
		{Name: "pairs", Kind: ffi.Table, Out: []data.Kind{data.KindInt}, OutNames: []string{"x"}},
		{Name: "tick", Kind: ffi.Expand, In: []data.Kind{data.KindInt}, Out: []data.Kind{data.KindInt}},
	} {
		if err := in.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	n := data.NewTable("n", data.Schema{{Name: "k", Kind: data.KindInt}})
	for k := 1; k <= rows; k++ {
		n.Cols[0].AppendInt(int64(k))
	}
	in.Put(n)
	one := data.NewTable("one", data.Schema{{Name: "k", Kind: data.KindInt}})
	one.Cols[0].AppendInt(1)
	in.Put(one)
	return in
}

// TestGeneratorsRunOnceToTheEnd: a generator UDF yields every row it
// produces, once, natively and fused, at any length — table UDFs that
// read their input generator past 1 024 rows, and an expand UDF whose
// rows count a module-level counter (CPython gives 1…2 000 on a fresh
// counter). The expectations are computed here, not by either arm.
func TestGeneratorsRunOnceToTheEnd(t *testing.T) {
	for _, prof := range []Profile{Monet, SQLite, Postgres} {
		for _, par := range []int{1, 4} {
			for _, rows := range []int{1000, 1025, 3000} {
				s := rows * (rows + 1) / 2
				cases := []struct {
					udf, sql, want string
				}{
					// inc(x) summed over 1..rows: s + rows.
					{"passthru", "SELECT COUNT(*) AS c, SUM(inc(x)) AS s FROM passthru((SELECT k FROM n)) AS t",
						fmt.Sprintf("%d|%d|", rows, s+rows)},
					// Each row r yields r and 2r: 3s + 2·rows.
					{"pairs", "SELECT COUNT(*) AS c, SUM(inc(x)) AS s FROM pairs((SELECT k FROM n)) AS t",
						fmt.Sprintf("%d|%d|", 2*rows, 3*s+2*rows)},
					// e counts 1..2000 on a fresh counter; inc(e) sums to
					// 2000·2001/2 + 2000.
					{"tick", "SELECT MIN(e) AS lo, MAX(e) AS hi, COUNT(*) AS c, SUM(inc(e)) AS s FROM (SELECT k, tick(k) AS e FROM one) AS t",
						"1|2000|2000|2003000|"},
				}
				// Each arm gets a fresh instance: the UDFs' statistics stay
				// cold, so the fused arm fuses (discover's cold-start rule),
				// and the counter starts at 0.
				for _, fused := range []bool{false, true} {
					in := genLazyDB(t, prof, par, rows)
					for _, c := range cases {
						where := fmt.Sprintf("%s par=%d rows=%d fused=%v %s", prof, par, rows, fused, c.udf)
						var got *data.Table
						var err error
						if !fused {
							got, err = in.Query(c.sql)
						} else {
							var rep *core.Report
							got, rep, err = in.QueryFusedReportedCtx(context.Background(), c.sql)
							// A table UDF whose input splits into parallel
							// morsels runs engine-side, under the trace.
							inTrace := c.udf == "tick" || par == 1 || rows <= 2048
							if err == nil && (rep.Fallback || inTrace && !strings.Contains(strings.Join(rep.Sources, "\n"), c.udf+"(")) {
								t.Fatalf("%s: the generator did not run inside a fused trace (fallback %q, sources %q)", where, rep.FallbackReason, rep.Sources)
							}
						}
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if r := strings.TrimSpace(render(got)); r != c.want {
							t.Errorf("%s = %s, want %s", where, r, c.want)
						}
					}
					in.Close()
				}
			}
		}
	}
}
