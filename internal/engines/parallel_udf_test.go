package engines

import (
	"fmt"
	"testing"

	"qfusor/internal/data"
)

// TestParallelUDFCallsAcrossMorsels: a closure-tier UDF with nested calls,
// called from a projection, a filter, a sort key and a hash join's
// residual, answers at Parallelism 8 exactly as at Parallelism 1. A
// runtime view's call stacks belong to one goroutine, so every crossing
// a morsel worker makes runs on a view of its own; under -race this is
// also the check that no view is shared between workers.
func TestParallelUDFCallsAcrossMorsels(t *testing.T) {
	const src = `
def pad(s, n):
    return s + "-" + str(n)

@scalarudf
def tag(s: str) -> str:
    return pad(s.strip().upper(), len(s))
`
	facts := data.NewTable("t", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 3000; i++ {
		_ = facts.AppendRow(data.Int(int64(i%50)), data.Str(fmt.Sprintf(" w%d ", i)))
	}
	dim := data.NewTable("d", data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 50; i++ {
		_ = dim.AppendRow(data.Int(int64(i)), data.Str(fmt.Sprintf("W%d-%d", i, len(fmt.Sprint(i))+3)))
	}
	queries := []string{
		"SELECT tag(s) AS v FROM t",
		"SELECT k FROM t WHERE tag(s) > 'W2'",
		"SELECT s FROM t ORDER BY tag(s) LIMIT 40",
		"SELECT t.k, d.s FROM t JOIN d ON t.k = d.k AND tag(t.s) <> d.s",
	}
	var want []string
	for _, par := range []int{1, 8} {
		in := Launch(Config{Profile: Monet, Parallelism: par, MorselSize: 64, JIT: true})
		in.Put(facts)
		in.Put(dim)
		if err := in.Define(src); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, err := in.Query(q)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, q, err)
			}
			got := render(res)
			if par == 1 {
				if res.NumRows() == 0 {
					t.Fatalf("%s: no rows", q)
				}
				want = append(want, got)
			} else if got != want[i] {
				t.Errorf("par=%d %s: rows differ from Parallelism 1", par, q)
			}
		}
		in.Close()
	}
}
