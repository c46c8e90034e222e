package engines

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/obs"
)

// intTable builds a one-column table holding 1..n.
func intTable(name string, n int) *data.Table {
	t := data.NewTable(name, data.Schema{{Name: "x", Kind: data.KindInt}})
	for i := 1; i <= n; i++ {
		_ = t.AppendRow(data.Int(int64(i)))
	}
	return t
}

// TestAttributionConcurrentQueriesDisjointUDFs: per-UDF attribution is
// read from the query's own clones, so two queries with disjoint UDF
// sets running at once on one engine each report only their own UDFs,
// with exact counts — on the ledger and on the Analysis. (Attribution
// used to be a before/after delta of every catalog UDF's Stats, which
// charged a query for whatever ran beside it.)
func TestAttributionConcurrentQueriesDisjointUDFs(t *testing.T) {
	in := Launch(Config{Profile: Monet, JIT: true})
	defer in.Close()
	if err := in.Define(`
@scalarudf
def a1(x: int) -> int:
    return x + 1

@scalarudf
def b1(x: int) -> int:
    return x * 2

@scalarudf
def b2(x: int) -> int:
    return x - 3
`); err != nil {
		t.Fatal(err)
	}
	in.Put(intTable("ta", 100))
	in.Put(intTable("tb", 50))
	// Query A keeps its single UDF unfused (row "a1"); query B fuses its
	// chain into one wrapper (row named after the wrapper).
	queries := []struct {
		sql   string
		fused bool
		rows  int64
	}{
		{"SELECT a1(x) AS y FROM ta", false, 100},
		{"SELECT b2(b1(x)) AS y FROM tb", true, 50},
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200 && !t.Failed(); i++ {
				a, err := in.QueryAnalyzeCtx(context.Background(), q.sql)
				if err != nil {
					t.Error(err)
					return
				}
				name := "a1"
				if q.fused {
					if len(a.Report.Wrappers) != 1 {
						t.Errorf("%s: wrappers %v", q.sql, a.Report.Wrappers)
						return
					}
					name = a.Report.Wrappers[0]
				}
				want := fmt.Sprintf("%s calls=1 rows_in=%d rows_out=%d", name, q.rows, q.rows)
				if got := analysisUDFs(a); got != want {
					t.Errorf("%s: Analysis.UDFs = %q, want %q", q.sql, got, want)
				}
				if got := ledgerUDFs(a.Resources); got != want {
					t.Errorf("%s: LedgerSnapshot.UDFs = %q, want %q", q.sql, got, want)
				}
				if a.Resources.FFICalls != 1 || a.Resources.FFIRowsIn != q.rows {
					t.Errorf("%s: ledger totals calls=%d rows_in=%d", q.sql, a.Resources.FFICalls, a.Resources.FFIRowsIn)
				}
			}
		}()
	}
	wg.Wait()
}

func analysisUDFs(a *core.Analysis) string {
	var rows []string
	for _, u := range a.UDFs {
		rows = append(rows, fmt.Sprintf("%s calls=%d rows_in=%d rows_out=%d", u.Name, u.Calls, u.RowsIn, u.RowsOut))
	}
	return strings.Join(rows, "; ")
}

func ledgerUDFs(s *obs.LedgerSnapshot) string {
	var rows []string
	for _, u := range s.UDFs {
		rows = append(rows, fmt.Sprintf("%s calls=%d rows_in=%d rows_out=%d", u.Name, u.Calls, u.RowsIn, u.RowsOut))
	}
	return strings.Join(rows, "; ")
}

// TestAttributionCostIndependentOfCatalogSize: a query pays for the
// UDFs it touches, not for the UDFs that exist. A UDF-free query
// allocates exactly as much with 330 registered UDFs as with 30 (the
// catalog-wide baseline snapshots allocated two maps of catalog size
// per query).
func TestAttributionCostIndependentOfCatalogSize(t *testing.T) {
	allocs := func(udfs int) float64 {
		in := Launch(Config{Profile: Monet, JIT: true})
		defer in.Close()
		var src strings.Builder
		for i := 0; i < udfs; i++ {
			fmt.Fprintf(&src, "@scalarudf\ndef f%d(x: int) -> int:\n    return x + %d\n\n", i, i)
		}
		if err := in.Define(src.String()); err != nil {
			t.Fatal(err)
		}
		if got := len(in.Eng.Catalog.UDFs()); got != udfs {
			t.Fatalf("catalog holds %d UDFs, want %d", got, udfs)
		}
		in.Put(intTable("t", 64))
		run := func() {
			if _, err := in.QueryFusedCtx(context.Background(), "SELECT x FROM t WHERE x > 2"); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	if small, large := allocs(30), allocs(330); small != large {
		t.Fatalf("UDF-free query allocates %.0f objects with 30 UDFs, %.0f with 330", small, large)
	}
}

// TestUDFBodyCostPositive: after native runs, a scalar UDF's learned
// body cost per row — wall minus wrapper time, what the cost model's
// udfRowCost reads — is positive on every transport: in-process vector
// (monetdb), in-process per-row (sqlite) and out-of-process (postgresql,
// where the host's round trip is wrapper time and must be in wall too).
func TestUDFBodyCostPositive(t *testing.T) {
	for _, p := range []Profile{Monet, SQLite, Postgres} {
		t.Run(string(p), func(t *testing.T) {
			in := Launch(Config{Profile: p, JIT: true})
			defer in.Close()
			if err := in.Define("@scalarudf\ndef inc(x: int) -> int:\n    return x + 1\n"); err != nil {
				t.Fatal(err)
			}
			in.Put(intTable("t", 2000))
			for i := 0; i < 3; i++ {
				if _, err := in.Query("SELECT inc(x) AS y FROM t"); err != nil {
					t.Fatal(err)
				}
			}
			u, ok := in.Eng.Catalog.UDF("inc")
			if !ok {
				t.Fatal("inc not in catalog")
			}
			if u.Stats.InRows.Load() == 0 {
				t.Fatal("native runs recorded no rows")
			}
			if body := u.Stats.NanosPerRow() - u.Stats.WrapNanosPerRow(); body <= 0 {
				t.Fatalf("body cost %.0f ns/row (wall %.0f, wrap %.0f)", body,
					u.Stats.NanosPerRow(), u.Stats.WrapNanosPerRow())
			}
		})
	}
}
