package workload_test

import (
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/engines"
	"qfusor/internal/ffi"
	"qfusor/internal/sqlengine"
	"qfusor/internal/workload"
)

var updateCensus = flag.Bool("update", false, "rewrite testdata/census/*.golden")

// TestPlanCensus is the plan census: for every profile, Q1–Q18 at
// Parallelism 1 and 4 on workload.Tiny, the row-multiset hash, the
// fused sections, each wrapper's rendered source, the tier of the
// wrapper and of each of its calls, and the inline decisions with their
// reasons. A plan or tier change shows as a diff of
// testdata/census/<profile>.golden; -update rewrites it. Only counts and
// decisions are recorded, never a time, and the worker count is pinned,
// so the file is the same on every host and at every GOMAXPROCS.
func TestPlanCensus(t *testing.T) {
	ids := make([]string, 0, 18)
	for id := range workload.AllQueries() {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int { return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b)) })
	for _, p := range []engines.Profile{engines.Monet, engines.Postgres, engines.SQLite,
		engines.Duck, engines.Spark, engines.DBX} {
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			base := setupProfile(t, p)
			var b strings.Builder
			for _, workers := range []int{1, 4} {
				in := base.SessionView("", workers, 0)
				for _, id := range ids {
					fmt.Fprintf(&b, "== %s parallelism=%d\n", id, workers)
					censusQuery(t, &b, in, id)
				}
			}
			path := filepath.Join("testdata", "census", string(p)+".golden")
			got := b.String()
			if *updateCensus {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("census of %s differs from %s (rerun with -update and diff):\n%s", p, path, firstDiff(string(want), got))
			}
		})
	}
}

// censusQuery plans and runs one query fused and writes its census
// entry.
func censusQuery(t *testing.T, b *strings.Builder, in *engines.Instance, id string) {
	q, rep, err := in.QF.Process(in.Eng, workload.AllQueries()[id])
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	res, err := in.Eng.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	fmt.Fprintf(b, "rows %d hash %s\n", res.NumRows(), rowsHash(keysOf(res)))
	fmt.Fprintf(b, "sections %d\n", rep.Sections)
	wrappers := fusedWrappers(q)
	for i, name := range rep.Wrappers {
		fmt.Fprintf(b, "wrapper %d tier %s\n", i, rep.Tiers[i])
		u := wrappers[name]
		if u == nil {
			continue // an inlined call site's pseudo-wrapper
		}
		for oi := range u.Trace().Ops {
			if op := &u.Trace().Ops[oi]; op.Kind == ffi.TCall {
				fmt.Fprintf(b, "  call %s %s\n", op.UDF.Name, op.Tier())
			}
		}
		src := strings.Replace(u.Trace().Render(u.Name), "def "+u.Name+"(", fmt.Sprintf("def wrapper%d(", i), 1)
		for _, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
			fmt.Fprintf(b, "  | %s\n", line)
		}
	}
	for _, d := range rep.Inlined {
		if d.Inlinable {
			fmt.Fprintf(b, "inline %s sites=%d expr=%s\n", d.UDF, d.Sites, d.Expr)
		} else {
			fmt.Fprintf(b, "opaque %s: %s\n", d.UDF, d.Reason)
		}
	}
}

// rowsHash hashes a row multiset independently of row order.
func rowsHash(rows map[string]int) string {
	keys := make([]string, 0, len(rows))
	for k, n := range rows {
		keys = append(keys, fmt.Sprintf("%d×%s", n, k))
	}
	slices.Sort(keys)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, "\n"))))[:16]
}

// fusedWrappers returns the fused wrappers a plan's nodes call, by name.
func fusedWrappers(q *sqlengine.Query) map[string]*ffi.UDF {
	out := map[string]*ffi.UDF{}
	visit := func(p *sqlengine.Plan) {
		for _, u := range p.UDFCalls() {
			if u.Fused {
				out[u.Name] = u
			}
		}
	}
	for _, c := range q.CTEs {
		c.Plan.Walk(visit)
	}
	q.Root.Walk(visit)
	return out
}

// firstDiff shows the first line where two texts differ, with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			lo := max(0, i-3)
			return fmt.Sprintf("line %d:\n  context: %s\n  want: %s\n  got:  %s", i+1,
				strings.Join(wl[lo:i], "\n           "), w, g)
		}
	}
	return "(no line differs)"
}
