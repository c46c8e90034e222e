package pylite

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qfusor/internal/data"
)

// loopSrc is an unbounded loop a deadline or budget must be able to
// stop, wrapped in a bare except that must NOT be able to catch the
// interrupt.
const loopSrc = `
def spin(n):
    i = 0
    try:
        while i < n:
            i = i + 1
    except:
        return -1
    return i
`

// runSpin runs the runaway loop on a view of a fresh runtime built with
// the given interrupt — what a query does.
func runSpin(t *testing.T, hot int, in *Interrupt) (data.Value, error) {
	t.Helper()
	it := NewInterp()
	it.HotThreshold = hot
	if err := it.Exec(loopSrc); err != nil {
		t.Fatal(err)
	}
	fn, _ := it.Global("spin")
	if hot > 0 {
		// Heat the function so the measured call runs in the compiled tier.
		for i := 0; i <= hot; i++ {
			if _, err := it.Call(fn, []data.Value{data.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return it.View(in).Call(fn, []data.Value{data.Int(1 << 40)})
}

func TestStepBudgetStopsRunawayLoop(t *testing.T) {
	for _, hot := range []int{0, 2} { // interpreter and compiled tiers
		_, err := runSpin(t, hot, NewInterrupt(nil, nil, 10_000, nil))
		var ie *InterruptError
		if !errors.As(err, &ie) || !errors.Is(err, ErrStepBudget) {
			t.Fatalf("hot=%d: want InterruptError{ErrStepBudget}, got %v", hot, err)
		}
		if _, isPy := IsPyError(err); isPy {
			t.Fatalf("hot=%d: interrupt is catchable as a PyError", hot)
		}
	}
}

func TestCancellationStopsRunawayLoop(t *testing.T) {
	for _, hot := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var res data.Value
		var err error
		go func() {
			defer close(done)
			res, err = runSpin(t, hot, NewInterrupt(ctx.Done(), ctx.Err, 0, nil))
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("hot=%d: loop did not stop after cancel", hot)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hot=%d: want context.Canceled in chain, got res=%v err=%v", hot, res, err)
		}
	}
}

func TestExceptCannotSwallowInterrupt(t *testing.T) {
	// The bare except in loopSrc returns -1 when it catches anything; a
	// budget interrupt must propagate as an error instead.
	res, err := runSpin(t, 0, NewInterrupt(nil, nil, 500, nil))
	if err == nil {
		t.Fatalf("except swallowed the interrupt: res=%v", res)
	}
}

// TestViewsDoNotShareInterrupts is the ownership rule: a view polls the
// interrupt it was built with and nothing else, so one query's expired
// budget (or closed context) cannot stop another query on the same
// runtime, and the root runtime is never interruptible.
func TestViewsDoNotShareInterrupts(t *testing.T) {
	it := NewInterp()
	if err := it.Exec(loopSrc); err != nil {
		t.Fatal(err)
	}
	fn, _ := it.Global("spin")
	var steps atomic.Int64
	spent := it.View(NewInterrupt(nil, nil, 1, &steps))
	if _, err := spent.Call(fn, []data.Value{data.Int(100)}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget of 1 did not stop the loop: %v", err)
	}
	if steps.Load() == 0 {
		t.Fatal("view did not count its steps")
	}
	before := steps.Load()
	for _, other := range []*Interp{it, it.View(nil), it.View(NewInterrupt(nil, nil, 10_000, nil))} {
		v, err := other.Call(fn, []data.Value{data.Int(100)})
		if err != nil || v.I != 100 {
			t.Fatalf("another view was stopped by a foreign interrupt: %v %v", v, err)
		}
	}
	if steps.Load() != before {
		t.Fatal("another view's steps were charged to this query's counter")
	}
	if NewInterrupt(nil, nil, 0, nil) != nil {
		t.Fatal("an interrupt with nothing to poll should be nil")
	}
}

func TestWorkerSharesInterrupt(t *testing.T) {
	it := NewInterp()
	if err := it.Exec(loopSrc); err != nil {
		t.Fatal(err)
	}
	w := it.View(NewInterrupt(nil, nil, 100, nil)).Worker()
	fn, _ := w.Global("spin")
	_, err := w.Call(fn, []data.Value{data.Int(1 << 40)})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("worker view ignored the budget: %v", err)
	}
}
