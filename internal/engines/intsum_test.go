package engines

import (
	"context"
	"fmt"
	"testing"

	"qfusor/internal/data"
)

// TestIntSumIsExact: an int SUM is exact past 2^53 whatever the row
// order and the morsel split, natively and in a fused trace.
func TestIntSumIsExact(t *testing.T) {
	const big = int64(1) << 53
	orders := [][]int64{{big, 1, 1, 1, 1}, {1, 1, 1, 1, big}}
	for _, morsel := range []int{0, 1, 7} {
		for _, xs := range orders {
			in := Launch(Config{Profile: Monet, JIT: true, Parallelism: 4, MorselSize: morsel, Tier: "closure"})
			if err := in.Define("@scalarudf\ndef ident(x: int) -> int:\n    return x\n"); err != nil {
				t.Fatal(err)
			}
			tbl := data.NewTable("t", data.Schema{{Name: "x", Kind: data.KindInt}})
			for _, x := range xs {
				_ = tbl.AppendRow(data.Int(x))
			}
			in.Put(tbl)
			arm := func(name string, run func() (*data.Table, error)) {
				t.Helper()
				res, err := run()
				if err != nil {
					t.Fatalf("morsel %d %v %s: %v", morsel, xs, name, err)
				}
				if got, want := render(res), fmt.Sprintf("%d|\n", big+4); got != want {
					t.Errorf("morsel %d %v %s: SUM = %s, want %s", morsel, xs, name, got, want)
				}
			}
			arm("native", func() (*data.Table, error) { return in.Query("SELECT SUM(x) AS s FROM t") })
			arm("native udf", func() (*data.Table, error) { return in.Query("SELECT SUM(ident(ident(x))) AS s FROM t") })
			arm("fused", func() (*data.Table, error) {
				res, rep, err := in.QueryFusedReportedCtx(context.Background(), "SELECT SUM(ident(ident(x))) AS s FROM t")
				if err == nil && (rep.Fallback || rep.Sections == 0) {
					err = fmt.Errorf("the aggregate did not run fused (fallback %q)", rep.FallbackReason)
				}
				return res, err
			})
			in.Close()
		}
	}
}
