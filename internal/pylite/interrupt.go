package pylite

import (
	"errors"
	"fmt"
	"sync/atomic"

	"qfusor/internal/faultinject"
)

// FaultStep is the chaos hook in the interpreter's statement loop (and
// the compiled tier's back-edges).
var FaultStep = faultinject.Register("pylite.step")

// ErrStepBudget reports that a query's UDF step budget ran out — the
// bound on runaway UDF loops.
var ErrStepBudget = errors.New("pylite: step budget exhausted")

// InterruptError is how cancellation surfaces out of UDF code. It is
// deliberately NOT a PyError: a UDF's bare `except:` must not be able
// to swallow a query deadline, so try/except handlers let it propagate.
type InterruptError struct {
	// Cause is the interrupt reason (a context error, ErrStepBudget).
	Cause error
}

// Error implements error.
func (e *InterruptError) Error() string {
	return fmt.Sprintf("pylite: interrupted: %v", e.Cause)
}

// Unwrap exposes the interrupt reason.
func (e *InterruptError) Unwrap() error { return e.Cause }

// Interrupt is one query's cancellation source, step budget and step
// counter. It is immutable once built: a runtime view is constructed
// with it (Interp.View) and every view executing the same query shares
// it, so a query can only ever be stopped by its own context.
type Interrupt struct {
	done   <-chan struct{}
	cause  func() error
	budget *atomic.Int64 // remaining statement steps; nil = unlimited
	steps  *atomic.Int64 // executed-statement counter (resource ledger); nil = uncounted
}

// NewInterrupt builds a query's interrupt: every interpreted statement
// and compiled loop back-edge of a view carrying it polls done, draws
// from a budget of that many steps (budget <= 0 = unlimited) and counts
// one step in the view's own tally. The tally is added to steps when
// the view is folded (Interp.MergeStats, or an interrupt stopping the
// view), so steps is exact once every view of the query is merged,
// while the statement path writes no memory the views share. The budget
// alone stays a shared counter, drawn from at every step. cause explains
// a done-closure (typically ctx.Err); it may be nil. With nothing to
// poll or count it returns nil, which a view treats as "never
// interrupted".
func NewInterrupt(done <-chan struct{}, cause func() error, budget int64, steps *atomic.Int64) *Interrupt {
	if done == nil && budget <= 0 && steps == nil {
		return nil
	}
	in := &Interrupt{done: done, cause: cause, steps: steps}
	if budget > 0 {
		in.budget = &atomic.Int64{}
		in.budget.Store(budget)
	}
	return in
}

// checkIntr is the statement-level gate: fault hook, step count, step
// budget and cancellation poll. With no interrupt and no fault armed it
// costs one atomic load and a nil check; with one, the step count is a
// plain add to the view's tally. A view an interrupt stops folds its
// tally at once, so a cancelled query's ledger counts the steps it ran.
func (it *Interp) checkIntr() error {
	if faultinject.Armed() {
		if err := faultinject.Fire(FaultStep); err != nil {
			return err
		}
	}
	in := it.intr
	if in == nil {
		return nil
	}
	it.tally.steps++
	if in.budget != nil && in.budget.Add(-1) < 0 {
		it.fold()
		return &InterruptError{Cause: ErrStepBudget}
	}
	if in.done != nil {
		select {
		case <-in.done:
			it.fold()
			cause := errors.New("pylite: interrupt requested")
			if in.cause != nil {
				if c := in.cause(); c != nil {
					cause = c
				}
			}
			return &InterruptError{Cause: cause}
		default:
		}
	}
	return nil
}
