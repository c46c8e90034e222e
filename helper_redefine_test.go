package qfusor_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qfusor"
)

// A fused chain calls a plain module-level helper by name. The helper's
// compiled callers resolve its cell once, so redefining the helper
// mid-query must reach them without a lock or a data race: run under
// -race, every row is one of the two versions' outputs.
const redefChain = `
def redefhelp(s):
    return s + "-a"

@scalarudf
def redefup(s: str) -> str:
    return redefhelp(s.upper())

@scalarudf
def redeftrim(s: str) -> str:
    return s.strip()
`

var redefHelpers = [2]string{
	"def redefhelp(s):\n    return s + \"-a\"\n",
	"def redefhelp(s):\n    return s + \"-b\"\n",
}

func TestRedefineHelperDuringParallelQuery(t *testing.T) {
	db, err := qfusor.Open(qfusor.MonetDB, qfusor.WithParallelism(4), qfusor.WithMorselSize(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Define(redefChain); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE redeft (name string)"); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	var vals []string
	inputs := make(map[string]bool, rows) // each row's redefup(redeftrim(name)) before the helper
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(' n%d ')", i))
		inputs[fmt.Sprintf("N%d", i)] = true
	}
	if err := db.Exec("INSERT INTO redeft VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	var defs atomic.Int64
	go func() {
		defer wg.Done()
		for i := 1; !stop.Load(); i++ {
			if err := db.Define(redefHelpers[i%2]); err != nil {
				t.Error(err)
				return
			}
			defs.Add(1)
		}
	}()
	for q := 0; q < 20 || defs.Load() < 2; q++ {
		res, err := db.Query("SELECT redefup(redeftrim(name)) AS v FROM redeft")
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		col := res.Cols[0]
		if col.Len() != rows {
			t.Fatalf("query %d returned %d rows, want %d", q, col.Len(), rows)
		}
		seen := make(map[string]bool, rows)
		for i := 0; i < rows; i++ {
			got := col.Get(i).S
			base, ok := strings.CutSuffix(got, "-a")
			if !ok {
				base, ok = strings.CutSuffix(got, "-b")
			}
			if !ok || !inputs[base] || seen[base] {
				t.Fatalf("query %d row %d = %q: not one of the two versions' outputs for a distinct input", q, i, got)
			}
			seen[base] = true
		}
	}
	stop.Store(true)
	wg.Wait()
	// Once the redefinitions stop, every row reads the last one.
	if err := db.Define(redefHelpers[1]); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT redefup(redeftrim(name)) AS v FROM redeft")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if got := res.Cols[0].Get(i).S; !strings.HasSuffix(got, "-b") {
			t.Fatalf("after the last redefinition row %d = %q, want the second version's output", i, got)
		}
	}
}
