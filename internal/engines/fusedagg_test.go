package engines_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/sqlengine"
	"qfusor/internal/workload"
)

// aggLib holds the UDFs of the hand-written fused-aggregate cases; inc's
// loop keeps it out of relational inlining.
const aggLib = `
@scalarudf
def inc(x: int) -> int:
    if x is None:
        return None
    for _ in range(1):
        x = x + 1
    return x

@expandudf
def upto(n: int) -> int:
    for i in range(n):
        yield i
`

// aggTables are the cases' inputs: g has NULL group keys and values
// from which upto yields nothing (n <= 0) or several rows; big's values
// sum past int64.
func aggTables() []*data.Table {
	g := data.NewTable("g", data.Schema{{Name: "k", Kind: data.KindString}, {Name: "v", Kind: data.KindInt}})
	for i := 0; i < 40; i++ {
		k := data.Str(fmt.Sprintf("k%d", i%4))
		if i%5 == 0 {
			k = data.Null
		}
		_ = g.AppendRow(k, data.Int(int64(i%7-2)))
	}
	big := data.NewTable("big", data.Schema{{Name: "k", Kind: data.KindString}, {Name: "v", Kind: data.KindInt}})
	for i := 0; i < 6; i++ {
		_ = big.AppendRow(data.Str("a"), data.Int(1<<62))
	}
	return []*data.Table{g, big}
}

// TestFusedAggMatchesEngineAggregate: a fused aggregate answers what the
// same query answers with aggregate fusion off (the section fused, its
// group-by native) and natively, on a vectorized and both row profiles,
// serial and parallel, at the default, one-row and seven-row morsels.
// Float results compare to nine significant digits: a morsel split
// changes the order of a float sum.
func TestFusedAggMatchesEngineAggregate(t *testing.T) {
	qs := workload.AllQueries()
	cases := []struct {
		name, sql string
		overflow  bool // every arm fails with data.ErrIntOverflow
	}{
		{"Q2", qs["Q2"], false},
		{"Q3", qs["Q3"], false},
		{"Q5", qs["Q5"], false},
		{"Q7", qs["Q7"], false},
		{"Q15", qs["Q15"], false},
		{"null keys", "SELECT k, COUNT(*) AS n, SUM(inc(inc(v))) AS s, MIN(inc(v)) AS lo FROM g GROUP BY k", false},
		{"filter drops every row", "SELECT COUNT(*) AS n, SUM(inc(inc(v))) AS s FROM g WHERE inc(inc(v)) > 1000", false},
		{"expand yields 0..n rows", "SELECT k, COUNT(*) AS n, SUM(inc(i)) AS s FROM (SELECT k, upto(inc(v)) AS i FROM g) AS x GROUP BY k", false},
		{"global COUNT(*)", "SELECT COUNT(*) AS n, MAX(inc(inc(v))) AS hi FROM g WHERE inc(v) > 0", false},
		{"int SUM past int64", "SELECT k, SUM(inc(inc(v))) AS s FROM big GROUP BY k", true},
	}
	ub := workload.GenUDFBench(workload.Tiny)
	pop, _ := workload.GenWeld(workload.Tiny)
	for _, prof := range []engines.Profile{engines.Monet, engines.SQLite, engines.Postgres} {
		for _, par := range []int{1, 2} {
			for _, morsel := range []int{0, 1, 7} {
				cfg := fmt.Sprintf("%s p%d m%d", prof, par, morsel)
				in := engines.Launch(engines.Config{Profile: prof, JIT: true, Parallelism: par, MorselSize: morsel})
				for _, install := range []func(*engines.Instance) error{workload.InstallUDFBench, workload.InstallWeld} {
					if err := install(in); err != nil {
						t.Fatal(err)
					}
				}
				if err := in.Define(aggLib); err != nil {
					t.Fatal(err)
				}
				for _, tb := range append(aggTables(), ub.Pubs, ub.Artifacts, pop) {
					in.Put(tb)
				}
				for _, c := range cases {
					arms := map[string][]string{}
					for _, arm := range []string{"fused", "fused, aggregate fusion off", "native"} {
						in.QF.Opts.AggFusion = arm == "fused"
						var (
							res *data.Table
							err error
						)
						if arm == "native" {
							res, err = in.Query(c.sql)
						} else {
							res, err = fusedArm(in, c.sql, arm == "fused")
						}
						if c.overflow {
							if !errors.Is(err, data.ErrIntOverflow) {
								t.Errorf("%s: %s: %s: err = %v, want %v", cfg, c.name, arm, err, data.ErrIntOverflow)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %s: %s: %v", cfg, c.name, arm, err)
						}
						arms[arm] = rowSet(res)
					}
					in.QF.Opts.AggFusion = true
					for arm, rows := range arms {
						if !slices.Equal(rows, arms["native"]) {
							t.Errorf("%s: %s: %s answered\n%s\nnative answered\n%s", cfg, c.name, arm,
								strings.Join(rows, "\n"), strings.Join(arms["native"], "\n"))
						}
					}
				}
				in.Close()
			}
		}
	}
}

// fusedArm runs sql on the optimized path and fails unless it ran with
// no fallback, with a FusedAgg in its plan exactly when aggregate fusion
// is on.
func fusedArm(in *engines.Instance, sql string, aggFusion bool) (*data.Table, error) {
	q, _, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		return nil, err
	}
	fusedAgg := false
	q.Root.Walk(func(p *sqlengine.Plan) { fusedAgg = fusedAgg || p.Op == sqlengine.OpFusedAgg })
	if fusedAgg != aggFusion {
		return nil, fmt.Errorf("plan has a FusedAgg: %v, want %v:\n%s", fusedAgg, aggFusion, q.Explain())
	}
	res, rep, err := in.QueryFusedReportedCtx(context.Background(), sql)
	if err == nil && rep.Fallback {
		err = fmt.Errorf("the query fell back to native: %s", rep.FallbackReason)
	}
	return res, err
}

// rowSet renders a result's rows, sorted, floats to nine significant
// digits.
func rowSet(t *data.Table) []string {
	rows := make([]string, t.NumRows())
	for r := range rows {
		var b strings.Builder
		for _, c := range t.Cols {
			v := c.Get(r)
			if v.Kind == data.KindFloat && !math.IsNaN(v.F) && !math.IsInf(v.F, 0) {
				fmt.Fprintf(&b, "%.9g|", v.F)
				continue
			}
			b.WriteString(v.Repr() + "|")
		}
		rows[r] = b.String()
	}
	slices.Sort(rows)
	return rows
}
