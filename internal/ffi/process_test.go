package ffi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/faultinject"
)

// TestProcessInvokerClosedCalls is the regression test for the old
// close-then-call hang/panic: every call kind on a closed invoker must
// return ErrInvokerClosed, and Close must be idempotent.
func TestProcessInvokerClosedCalls(t *testing.T) {
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(2)
	col := intCol(1, 2, 3)
	if _, err := p.CallScalar(u, []*data.Column{col}, 3); err != nil {
		t.Fatalf("pre-close call: %v", err)
	}
	p.Close()
	p.Close() // idempotent

	done := make(chan error, 1)
	go func() {
		_, err := p.CallScalar(u, []*data.Column{col}, 3)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInvokerClosed) {
			t.Fatalf("want ErrInvokerClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call on closed invoker hung")
	}
	if _, err := p.CallTable(u, data.NewChunk(col), nil); !errors.Is(err, ErrInvokerClosed) {
		t.Fatalf("CallTable after close: %v", err)
	}
	if _, err := p.CallAggregate(u, []*data.Column{col}, 3, nil, 1); !errors.Is(err, ErrInvokerClosed) {
		t.Fatalf("CallAggregate after close: %v", err)
	}
}

// TestProcessInvokerCrashRespawnRetry kills the worker mid-batch once:
// the supervisor must respawn it and the retried batch must succeed
// with the right answer.
func TestProcessInvokerCrashRespawnRetry(t *testing.T) {
	defer faultinject.Reset()
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(2)
	t.Cleanup(p.Close)
	if err := faultinject.Enable(FaultProcWorker, faultinject.Spec{Kind: faultinject.WorkerKill, Times: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := p.CallScalar(u, []*data.Column{intCol(1, 2, 3, 4, 5)}, 5)
	if err != nil {
		t.Fatalf("call after worker kill: %v", err)
	}
	for i, want := range []int64{2, 4, 6, 8, 10} {
		if got := out.Get(i).I; got != want {
			t.Fatalf("row %d: got %d want %d", i, got, want)
		}
	}
	if p.Respawns() != 1 {
		t.Fatalf("respawns = %d, want 1", p.Respawns())
	}
}

// TestProcessInvokerWorkerPanicIsCrash: a panic inside the worker (an
// injected one here) must surface as ErrWorkerCrashed — not crash the
// process — and the pool must keep serving.
func TestProcessInvokerWorkerPanicIsCrash(t *testing.T) {
	defer faultinject.Reset()
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(8)
	t.Cleanup(p.Close)
	p.MaxRetries = -1 // observe the raw crash error
	if err := faultinject.Enable(FaultProcWorker, faultinject.Spec{Kind: faultinject.Panic, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := p.CallScalar(u, []*data.Column{intCol(1, 2)}, 2)
	if !errors.Is(err, ErrWorkerCrashed) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want ErrWorkerCrashed wrapping ErrInjected, got %v", err)
	}
	// Respawned worker serves the next call.
	if _, err := p.CallScalar(u, []*data.Column{intCol(3)}, 1); err != nil {
		t.Fatalf("call after respawn: %v", err)
	}
}

// TestProcessInvokerCallTimeout bounds a round trip stuck behind an
// injected delay.
func TestProcessInvokerCallTimeout(t *testing.T) {
	defer faultinject.Reset()
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(8)
	t.Cleanup(p.Close)
	p.CallTimeout = 30 * time.Millisecond
	p.MaxRetries = -1
	if err := faultinject.Enable(FaultProcWorker, faultinject.Spec{Kind: faultinject.Delay, Delay: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := p.CallScalar(u, []*data.Column{intCol(1)}, 1)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

// TestProcessInvokerNoRetryOnUDFError: deterministic UDF failures must
// not be retried (retry is only for crashes/timeouts).
func TestProcessInvokerNoRetryOnUDFError(t *testing.T) {
	defer faultinject.Reset()
	rt := testRuntime(t)
	u := udfOf(t, rt, "double", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(8)
	t.Cleanup(p.Close)
	var fires int
	faultinject.SetFireHook(func(string) { fires++ })
	if err := faultinject.Enable(FaultScalar, faultinject.Spec{Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	_, err := p.CallScalar(u, []*data.Column{intCol(1)}, 1)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if fires != 1 {
		t.Fatalf("UDF-side error fired %d times (retried?)", fires)
	}
}

// TestProcessTripAllocation: a crossing allocates in proportion to its
// payload, with no fixed-size codec buffer. A one-row trip's messages
// are tens of bytes, so the whole trip stays under 4 KiB.
func TestProcessTripAllocation(t *testing.T) {
	rt := testRuntime(t)
	if err := rt.Exec("def ident(x):\n    return x\n"); err != nil {
		t.Fatal(err)
	}
	u := udfOf(t, rt, "ident", Scalar, []data.Kind{data.KindInt}, []data.Kind{data.KindInt})
	p := NewProcessInvoker(256)
	t.Cleanup(p.Close)
	args := []*data.Column{intCol(42)}
	call := func() {
		out, err := p.CallScalar(u, args, 1)
		if err != nil || out.Ints[0] != 42 {
			t.Fatalf("ident(42) = %v, %v", out, err)
		}
	}
	for i := 0; i < 10; i++ { // past the JIT threshold
		call()
	}
	const trips = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / trips; per >= 4<<10 {
		t.Fatalf("a one-row trip allocates %d B, want < 4 KiB", per)
	}
}
