package qfusor_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"qfusor"
)

// A fused chain whose first body loops over its input, so a row's step
// count depends on the row: a worker whose steps were lost or counted
// twice changes the query's total.
const stepsSrc = `
@scalarudf
def stepclean(s: str) -> str:
    out = ""
    for ch in s:
        if ch != "-":
            out = out + ch
    return out

@scalarudf
def stepup(s: str) -> str:
    return s.upper()
`

const stepsSQL = "SELECT stepup(stepclean(name)) AS v FROM stepst"

// stepsWant is the ledger's udf_steps for stepsSQL over openStepsDB's
// rows. The count is per statement and loop back-edge of each view, so
// it is the same however the rows are split across workers and morsels.
const stepsWant = 3487

func openStepsDB(t *testing.T, opts ...qfusor.Option) *qfusor.DB {
	t.Helper()
	db, err := qfusor.Open(qfusor.MonetDB, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Define(stepsSrc); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE stepst (name string)"); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("('r-%s-%d')", strings.Repeat("x", i%7), i))
	}
	if err := db.Exec("INSERT INTO stepst VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestUDFStepsExactAcrossWorkers: each view counts its steps in its own
// tally and folds them into the query's ledger when it is merged, so
// the ledger's total may not depend on parallelism or morsel size.
func TestUDFStepsExactAcrossWorkers(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, morsel := range []int{1, 1024} {
			db := openStepsDB(t, qfusor.WithParallelism(par), qfusor.WithMorselSize(morsel))
			a, err := db.QueryAnalyze(stepsSQL)
			if err != nil {
				t.Fatal(err)
			}
			if a.Resources == nil {
				t.Fatal("no ledger with accounting on")
			}
			if got := a.Resources.UDFSteps; got != stepsWant {
				t.Errorf("parallelism %d, morsel %d: udf_steps = %d, want %d", par, morsel, got, stepsWant)
			}
		}
	}
}

// TestUDFStepsOnCancelledQuery: a view stopped by its query's deadline
// folds the steps it ran, so a cancelled query's ledger is not empty.
func TestUDFStepsOnCancelledQuery(t *testing.T) {
	db := openStepsDB(t, qfusor.WithParallelism(2))
	if err := db.Define(`
@scalarudf
def stepspin(s: str) -> str:
    n = 0
    while n >= 0:
        n = n + 1
    return s

@scalarudf
def steptail(s: str) -> str:
    return s.lower()
`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := db.QueryAnalyzeContext(ctx, "SELECT steptail(stepspin(name)) AS v FROM stepst")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spinning query ended with %v, want the deadline", err)
	}
	recs := db.RecentQueries(1)
	if len(recs) != 1 || recs[0].Resources == nil {
		t.Fatalf("cancelled query left no ledger: %+v", recs)
	}
	if got := recs[0].Resources.UDFSteps; got <= 0 {
		t.Fatalf("cancelled query's udf_steps = %d, want > 0", got)
	}
}
