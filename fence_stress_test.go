package qfusor_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfusor"
)

// Epoch-fencing stress (paper §2.2 correctness obligation): UDF
// redefinition must invalidate cached plan decisions and compiled
// fused wrappers atomically. One goroutine redefines a UDF in a tight
// loop while workers hammer a fused query that calls it twice; every
// result must equal the full v1 answer or the full v2 answer — a mixed
// or stale result means a fused wrapper outlived its epoch.
const fenceV1 = `
@scalarudf
def fz(n: int) -> int:
    return n * 2 + 1
`

// fenceV2 produces even outputs where fenceV1's chain produces odd
// ones (4n+3 vs 36n), so any cross-version contamination is visible.
const fenceV2 = `
@scalarudf
def fz(n: int) -> int:
    return n * 6
`

const fenceSQL = "SELECT fz(fz(n)) AS v FROM ftbl ORDER BY n"

func openFenceDB(t *testing.T) *qfusor.DB {
	t.Helper()
	db, err := qfusor.Open(qfusor.MonetDB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Define(fenceV1); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE ftbl (n int)"); err != nil {
		t.Fatal(err)
	}
	vals := ""
	for i := 0; i < 64; i++ {
		if i > 0 {
			vals += ", "
		}
		vals += fmt.Sprintf("(%d)", i)
	}
	if err := db.Exec("INSERT INTO ftbl VALUES " + vals); err != nil {
		t.Fatal(err)
	}
	return db
}

func fenceOracle(t *testing.T, db *qfusor.DB, src string) string {
	t.Helper()
	if err := db.Define(src); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryNative(fenceSQL)
	if err != nil {
		t.Fatal(err)
	}
	return renderRows(t, res)
}

func TestPlanCacheEpochFenceStress(t *testing.T) {
	db := openFenceDB(t)
	v1 := fenceOracle(t, db, fenceV1)
	v2 := fenceOracle(t, db, fenceV2)
	if v1 == v2 {
		t.Fatal("fence oracle versions are indistinguishable")
	}
	if err := db.Define(fenceV1); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		iters   = 30
	)
	stop := make(chan struct{})
	var flips atomic.Int64
	var ddlWG sync.WaitGroup
	ddlWG.Add(1)
	go func() {
		defer ddlWG.Done()
		srcs := []string{fenceV2, fenceV1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Define(srcs[i%2]); err == nil {
				flips.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	sawV1, sawV2 := 0, 0
	// Each worker runs iters queries, and goes on until two redefinitions
	// have landed, so that the churn overlaps the queries however the
	// scheduler orders the goroutines; the deadline bounds a redefinition
	// loop that never lands.
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters || flips.Load() < 2 && time.Now().Before(deadline); i++ {
				res, err := db.Query(fenceSQL)
				if err != nil {
					// A query racing the redefinition window may fail with a
					// typed error; it must never return wrong rows.
					continue
				}
				got := renderRows(t, res)
				mu.Lock()
				switch got {
				case v1:
					sawV1++
				case v2:
					sawV2++
				default:
					failures = append(failures, fmt.Sprintf(
						"worker %d iter %d: rows match neither UDF version (stale or torn fused wrapper):\n%s", w, i, got))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ddlWG.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if sawV1+sawV2 == 0 {
		t.Fatal("no query succeeded under DDL churn — the stress tested nothing")
	}
	if flips.Load() < 2 {
		t.Fatalf("only %d UDF redefinitions landed — no concurrent churn happened", flips.Load())
	}
	t.Logf("fence stress: v1=%d v2=%d flips=%d", sawV1, sawV2, flips.Load())
}
