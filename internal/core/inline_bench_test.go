package core_test

// In-process tier microbenchmarks: the E22 serve bench compares the
// inlined and closure tiers end to end over HTTP; these isolate the
// per-query execution cost of each tier on the same Q1-shape
// straight-line workload, without the serving plane.

import (
	"fmt"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/engines"
)

const benchUDF = `
@scalarudf
def sboost(x: int) -> int:
    if x is None:
        return None
    return (x * 37 + 11) * 3 - x
`

func tierBenchDB(b *testing.B) *engines.Instance {
	b.Helper()
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	if err := in.Define(benchUDF); err != nil {
		b.Fatal(err)
	}
	if err := in.Eng.Exec("CREATE TABLE stbl (n int)"); err != nil {
		b.Fatal(err)
	}
	const rows = 4000
	vals := ""
	for i := 0; i < rows; i++ {
		if i > 0 {
			vals += ", "
		}
		if i%97 == 0 {
			vals += "(NULL)"
		} else {
			vals += fmt.Sprintf("(%d)", i%211)
		}
	}
	if err := in.Eng.Exec("INSERT INTO stbl VALUES " + vals); err != nil {
		b.Fatal(err)
	}
	return in
}

func benchTier(b *testing.B, tier core.Tier) {
	in := tierBenchDB(b)
	in.QF.Opts.Tier = tier
	const sql = "SELECT n, sboost(sboost(n)) AS v FROM stbl ORDER BY n"
	if _, err := in.QueryFused(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.QueryFused(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTierInlined(b *testing.B) { benchTier(b, "auto") }
func BenchmarkTierClosure(b *testing.B) { benchTier(b, "closure") }
