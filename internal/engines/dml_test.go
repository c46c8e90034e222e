package engines

import (
	"context"
	"errors"
	"testing"
	"time"

	"qfusor/internal/obs"
	"qfusor/internal/pylite"
)

const spinLib = `
@scalarudf
def spin(x: int) -> int:
    i = 0
    while i < 1000000000:
        i = i + 1
    return x
`

// TestInterruptStopsUDFInsideDML: a DML statement runs its UDFs on
// per-query clones bound to the caller's context like a query does, so
// a deadline and the step budget each stop a runaway UDF inside INSERT,
// UPDATE and DELETE — with the JIT on and off.
func TestInterruptStopsUDFInsideDML(t *testing.T) {
	statements := map[string]string{
		"insert_values": "INSERT INTO dst VALUES (spin(1))",
		"insert_select": "INSERT INTO dst SELECT spin(x) FROM src",
		"update":        "UPDATE src SET x = spin(x)",
		"delete":        "DELETE FROM src WHERE spin(x) > 0",
	}
	stops := map[string]struct {
		budget  int64
		timeout time.Duration
		cause   error
	}{
		"deadline":    {timeout: 50 * time.Millisecond, cause: context.DeadlineExceeded},
		"step_budget": {budget: 20_000, cause: pylite.ErrStepBudget},
	}
	for stop, s := range stops {
		for name, sql := range statements {
			for _, jit := range []bool{true, false} {
				t.Run(stop+"/"+name+map[bool]string{true: "/jit", false: "/interpreted"}[jit], func(t *testing.T) {
					in := Launch(Config{Profile: Monet, JIT: jit, UDFStepBudget: s.budget})
					defer in.Close()
					if err := in.Define(spinLib); err != nil {
						t.Fatal(err)
					}
					in.Put(intTable("src", 8))
					in.Put(intTable("dst", 0))
					ctx := context.Background()
					if s.timeout > 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, s.timeout)
						defer cancel()
					}
					done := make(chan error, 1)
					go func() {
						_, err := in.QueryCtx(ctx, sql)
						done <- err
					}()
					select {
					case err := <-done:
						if !errors.Is(err, s.cause) {
							t.Fatalf("want %v in the chain, got %v", s.cause, err)
						}
					case <-time.After(30 * time.Second):
						t.Fatal("the statement's interrupt did not reach the UDF")
					}
				})
			}
		}
	}
}

// TestAttributionDMLStatement: a DML statement's UDF work lands on the
// ledger its caller attached to the context, exactly as a query's does.
func TestAttributionDMLStatement(t *testing.T) {
	in := Launch(Config{Profile: Monet, JIT: true})
	defer in.Close()
	if err := in.Define("@scalarudf\ndef a1(x: int) -> int:\n    return x + 1\n"); err != nil {
		t.Fatal(err)
	}
	in.Put(intTable("src", 100))
	in.Put(intTable("dst", 0))
	const want = "a1 calls=1 rows_in=100 rows_out=100"
	for _, sql := range []string{
		"UPDATE src SET x = a1(x)",
		"INSERT INTO dst SELECT a1(x) FROM src",
		"DELETE FROM dst WHERE a1(x) < 0",
	} {
		led := obs.NewLedger()
		if _, err := in.QueryCtx(obs.ContextWithLedger(context.Background(), led), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := ledgerUDFs(led.Snapshot()); got != want {
			t.Errorf("%s: LedgerSnapshot.UDFs = %q, want %q", sql, got, want)
		}
	}
}
