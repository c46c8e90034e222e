package pylite

import (
	"fmt"
	"sync"
	"testing"

	"qfusor/internal/data"
)

// checkBalanced fails unless every frame and staged argument is popped.
func checkBalanced(t *testing.T, it *Interp) {
	t.Helper()
	if it.depth != 0 || len(it.args) != 0 {
		t.Fatalf("stack unbalanced: depth %d, %d staged arguments", it.depth, len(it.args))
	}
}

// callStackSrc exercises every way a compiled call can nest.
const callStackSrc = `
def rsum(n):
    if n == 0:
        return 0
    return n + rsum(n - 1)

def is_even(n):
    if n == 0:
        return True
    return is_odd(n - 1)

def is_odd(n):
    if n == 0:
        return False
    return is_even(n - 1)

def g(x):
    return x * 2

def h(y):
    return y + 1

def k(a, b, c):
    return [a, b, c]

def nested(x, y):
    return k(g(x), h(y), g(h(g(x))))

def methods(s):
    return k(s.upper(), s.replace("a", str(g(len(s)))), len(s.strip().split(",")))

def mk(x):
    y = x * 10
    def inner(z):
        return y + z
    return inner

def mklambda(x):
    return lambda z: x + z

def captures(a):
    p = mk(a)
    q = mk(a + 1)
    r = mklambda(a)
    s = mklambda(a + 2)
    return [p(1), q(1), r(1), s(1)]

def gen(n):
    for i in range(n):
        yield g(i)

def gens(n):
    ge = (h(i) for i in range(n))
    big = range(3000)
    return [sum(gen(n)), sum(ge), sum(gen(3000)), sum(map(h, big)),
            len(list(filter(None, big))), sum([i * v for i, v in enumerate(big)]),
            len(list(zip(big, big)))]

def boom(x):
    if x < 0:
        raise ValueError("negative")
    return x

def raises(x):
    return k(g(x), boom(x), h(x))

def panics(x):
    return k(g(x), h(explode(x)), h(x))
`

// compiledRuntime loads callStackSrc with every function compiled on its
// first call.
func compiledRuntime(t *testing.T) *Interp {
	t.Helper()
	it := NewInterp()
	it.HotThreshold = 1
	if err := it.Exec(callStackSrc); err != nil {
		t.Fatalf("exec: %v", err)
	}
	it.Globals.Set("explode", data.Object(&Builtin{Name: "explode",
		Fn: func(*Ctx, []data.Value, map[string]data.Value) (data.Value, error) { panic("explode") }}))
	return it
}

func callGlobal(it *Interp, name string, args ...data.Value) (data.Value, error) {
	fn, _ := it.Global(name)
	return it.Call(fn, args)
}

// TestFrameAndArgumentReuse: frames and argument vectors come from the
// runtime's stacks, and results are what fresh allocations gave.
func TestFrameAndArgumentReuse(t *testing.T) {
	it := compiledRuntime(t)
	cases := []struct {
		fn   string
		args []data.Value
		want string
	}{
		{"rsum", ints(200), "20100"},
		{"is_even", ints(200), "True"},
		{"is_odd", ints(201), "True"},
		{"nested", ints(3, 4), "[6, 5, 14]"},
		{"methods", []data.Value{data.Str("a,b ,ca")}, `["A,B ,CA", "14,b ,c14", 3]`},
		{"captures", ints(5), "[51, 61, 6, 8]"},
		// The 3 000-item producers are drained on the caller's runtime,
		// with no limit on their length.
		{"gens", ints(10), "[90, 55, 8997000, 4501500, 2999, 8995500500, 3000]"},
	}
	for round := 0; round < 3; round++ { // the first round compiles, later ones reuse
		for _, tc := range cases {
			v, err := callGlobal(it, tc.fn, tc.args...)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, tc.fn, err)
			}
			if v.Repr() != tc.want {
				t.Fatalf("round %d %s = %s, want %s", round, tc.fn, v.Repr(), tc.want)
			}
			checkBalanced(t, it)
		}
	}
	if len(it.frames) < 200 {
		t.Fatalf("frame stack depth %d after recursion to 200", len(it.frames))
	}
	if it.Stats.CompiledCalls.Load() == 0 {
		t.Fatal("nothing ran on the closure tier")
	}
}

// TestFrameStackBalancedAfterRaiseAndPanic: a raise and a recovered Go
// panic in the middle of nested argument staging leave both stacks
// empty, and the next call is correct.
func TestFrameStackBalancedAfterRaiseAndPanic(t *testing.T) {
	it := compiledRuntime(t)
	recovered := func(fn string, x int64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = nil
			}
		}()
		_, err = callGlobal(it, fn, data.Int(x))
		return err
	}
	for round := 0; round < 3; round++ {
		if err := recovered("raises", -1); err == nil {
			t.Fatal("raise did not surface")
		}
		checkBalanced(t, it)
		if v, err := callGlobal(it, "raises", data.Int(2)); err != nil || v.Repr() != "[4, 2, 3]" {
			t.Fatalf("after raise: %v, %v", v, err)
		}
		_ = recovered("panics", 1)
		checkBalanced(t, it)
		if v, err := callGlobal(it, "nested", data.Int(3), data.Int(4)); err != nil || v.Repr() != "[6, 5, 14]" {
			t.Fatalf("after panic: %v, %v", v, err)
		}
		checkBalanced(t, it)
	}
}

// TestWorkerViewsShareCompiledFunc: one CompiledFunc called concurrently
// from two Worker views — each view owns its stacks (run under -race).
func TestWorkerViewsShareCompiledFunc(t *testing.T) {
	root := compiledRuntime(t)
	if _, err := callGlobal(root, "nested", data.Int(1), data.Int(1)); err != nil {
		t.Fatal(err)
	}
	fv, _ := root.Global("nested")
	cf := fv.P.(*FuncValue).Compiled()
	if cf == nil {
		t.Fatal("nested not compiled")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		view := root.Worker()
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				v, err := cf.Call(view, ints(i, w), nil)
				want := data.NewList(ints(2*i, w+1, 4*i+2)).Repr()
				if err == nil && v.Repr() != want {
					err = fmt.Errorf("worker %d: nested(%d, %d) = %s, want %s", w, i, w, v.Repr(), want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			if view.depth != 0 || len(view.args) != 0 {
				errs <- fmt.Errorf("worker %d: stack unbalanced", w)
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompiledCallAllocatesNothing: a straight-line compiled UDF that
// imports a module, calls a module function and a string method and
// returns a scalar allocates nothing per call once warm.
func TestCompiledCallAllocatesNothing(t *testing.T) {
	it, fn := loadFn(t, "def f(s, x):\n    import math\n    return math.sqrt(x) + len(s.strip())\n")
	cf, err := Compile(fn)
	if err != nil {
		t.Fatal(err)
	}
	args := []data.Value{data.Str("  abc "), data.Float(16)}
	v, err := cf.Call(it, args, nil)
	if err != nil || v.Repr() != "7.0" {
		t.Fatalf("f = %v, %v", v, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cf.Call(it, args, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per call, want 0", allocs)
	}
}
