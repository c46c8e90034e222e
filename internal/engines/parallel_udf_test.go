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

// TestUDFAggregateAcrossMorsels: a PyLite aggregate UDF over a computed
// argument, grouped by a string key that is NULL in some rows, answers
// at MorselSize 7 and Parallelism 8 as the serial run does. Each morsel
// writes the argument and its group ids at its own offset of one
// full-length column and id vector, and the UDF folds its rows in input
// order, so a value or an id at the wrong offset changes the answer.
func TestUDFAggregateAcrossMorsels(t *testing.T) {
	const src = `
@aggregateudf
class ordhash:
    def init(self):
        self.h = 7
    def step(self, v):
        if v is None:
            self.h = (self.h * 31 + 1) % 1000003
            return
        self.h = (self.h * 31 + int(v)) % 1000003
    def final(self):
        return self.h
`
	tbl := data.NewTable("t", data.Schema{{Name: "g", Kind: data.KindString}, {Name: "n", Kind: data.KindInt}, {Name: "s", Kind: data.KindString}})
	for i := 0; i < 3000; i++ {
		g := data.Str(fmt.Sprintf("g%d", i%13))
		if i%11 == 0 {
			g = data.Null
		}
		_ = tbl.AppendRow(g, data.Int(int64(i)), data.Str(fmt.Sprint(i*7%1000)))
	}
	// The CASE is a typed string kernel, so at MorselSize 7 its result is
	// a recycled slot from the second morsel on.
	const q = "SELECT g, ordhash(CASE WHEN n % 5 = 0 THEN NULL ELSE s END) AS h, COUNT(*) AS c FROM t GROUP BY g"
	var want string
	for _, cfg := range []Config{{Profile: Monet, Parallelism: 1}, {Profile: Monet, Parallelism: 8, MorselSize: 7}} {
		cfg.JIT = true
		in := Launch(cfg)
		in.Put(tbl)
		if err := in.Define(src); err != nil {
			t.Fatal(err)
		}
		res, err := in.Query(q)
		in.Close()
		if err != nil {
			t.Fatalf("par=%d size=%d: %v", cfg.Parallelism, cfg.MorselSize, err)
		}
		got := render(res)
		if want == "" {
			if res.NumRows() != 14 {
				t.Fatalf("%s: %d groups, want 14 (13 keys and NULL)", q, res.NumRows())
			}
			want = got
		} else if got != want {
			t.Errorf("par=%d size=%d: rows differ from the serial run:\n%s\nwant:\n%s", cfg.Parallelism, cfg.MorselSize, got, want)
		}
	}
}
