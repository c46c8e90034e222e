package pylite

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"qfusor/internal/data"
)

// genSemanticsSrc pins the generator protocol. The expected values in
// TestGeneratorSemantics are CPython 3.11's, except where noted.
const genSemanticsSrc = `
c = [0]

def gen():
    yield c[0]

def lazy_start():
    c[0] = 0
    g = gen()
    c[0] = 5
    return list(g)

def guarded():
    try:
        yield 1
        yield 2
    except ValueError:
        yield 'caught'

def consumer_raises():
    out = []
    try:
        for x in guarded():
            out.append(x)
            raise ValueError('boom')
    except ValueError:
        out.append('consumer')
    return out

def raises_early():
    raise ValueError('early')
    yield 1

def raise_at_first_next():
    g = raises_early()
    out = ['made']
    try:
        next(g)
    except ValueError as e:
        out.append(str(e))
    return out

def add(a, b):
    return a + b

def counting(n):
    i = 0
    while i < n:
        yield add(i, 0)
        i = add(i, 1)

def next_while_draining():
    g = counting(3)
    out = []
    for x in g:
        try:
            next(g, None)
        except ValueError as e:
            out.append(str(e))
    return out

def pull_then_drain():
    g = counting(5)
    first = next(g)
    return [first, list(g), next(g, 'done')]

def break_finishes():
    g = counting(5)
    for x in g:
        if x == 1:
            break
    return [x, next(g, 'done')]

def genexp_snapshot():
    k = 1
    g = (x * k for x in range(3))
    k = 10
    return list(g)

def exc_str():
    try:
        raise ValueError('x')
    except ValueError as e:
        return [str(e), str(ValueError('y')), '%s' % e, '{}'.format(e)]

def brk():
    for x in counting(10):
        if x == 3:
            break
    return x

def ret():
    for x in counting(10):
        if x == 4:
            return add(x, 0)

def rse():
    for x in counting(10):
        if x == 5:
            raise ValueError('x')
`

// onBothTiers runs fn on a fresh runtime per tier: the tree-walker
// (HotThreshold 0) and the closure tier (every function compiled on its
// first call).
func onBothTiers(t *testing.T, src string, fn func(t *testing.T, it *Interp)) {
	for _, hot := range []int{0, 1} {
		it := NewInterp()
		it.HotThreshold = hot
		if err := it.Exec(src); err != nil {
			t.Fatal(err)
		}
		fn(t, it)
		if hot == 1 && it.Stats.CompiledCalls.Load() == 0 {
			t.Fatal("nothing ran on the closure tier")
		}
	}
}

func TestGeneratorSemantics(t *testing.T) {
	cases := []struct{ fn, want string }{
		// The body starts at the first consumer, not at the call.
		{"lazy_start", "[5]"},
		// The consumer's exception is not the body's to catch.
		{"consumer_raises", `[1, "consumer"]`},
		{"raise_at_first_next", `["made", "early"]`},
		// A divergence from CPython (see DESIGN.md §2): a drain runs the
		// body, so next() on the generator it drains finds it executing.
		// CPython returns [].
		{"next_while_draining", `["generator already executing", "generator already executing", "generator already executing"]`},
		// A loop over a pulled generator goes on from where next() left it.
		{"pull_then_drain", `[0, [1, 2, 3, 4], "done"]`},
		// A divergence: leaving a drain finishes the generator. CPython
		// gives [1, 2].
		{"break_finishes", `[1, "done"]`},
		// A divergence: a generator expression reads the locals of its
		// making. CPython gives [0, 10, 20].
		{"genexp_snapshot", "[0, 1, 2]"},
		{"exc_str", `["x", "y", "x", "x"]`},
	}
	onBothTiers(t, genSemanticsSrc, func(t *testing.T, it *Interp) {
		for _, c := range cases {
			v, err := callGlobal(it, c.fn)
			if err != nil {
				t.Fatalf("hot=%d %s: %v", it.HotThreshold, c.fn, err)
			}
			if v.Repr() != c.want {
				t.Errorf("hot=%d %s = %s, want %s", it.HotThreshold, c.fn, v.Repr(), c.want)
			}
			checkBalanced(t, it)
		}
	})
}

// TestDrainKeepsStacksBalanced: a drain's consumer runs on balanced
// stacks at every yield, and a break, return or raise out of it, or a
// Go error or panic, leaves them balanced.
func TestDrainKeepsStacksBalanced(t *testing.T) {
	onBothTiers(t, genSemanticsSrc, func(t *testing.T, it *Interp) {
		for round := 0; round < 2; round++ { // the first round compiles
			g, err := callGlobal(it, "counting", data.Int(10))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := it.Iterate(g, func(v data.Value) error {
				checkBalanced(t, it)
				n++
				return nil
			}); err != nil || n != 10 {
				t.Fatalf("drain: %d items, %v", n, err)
			}
			for fn, want := range map[string]string{"brk": "3", "ret": "4"} {
				if v, err := callGlobal(it, fn); err != nil || v.Repr() != want {
					t.Fatalf("%s = %v, %v; want %s", fn, v, err, want)
				}
				checkBalanced(t, it)
			}
			if _, err := callGlobal(it, "rse"); err == nil {
				t.Fatal("rse: the raise did not surface")
			}
			checkBalanced(t, it)

			stop := errors.New("stop")
			g, _ = callGlobal(it, "counting", data.Int(10))
			if err := it.Iterate(g, func(data.Value) error { return stop }); err != stop {
				t.Fatalf("a consumer's error came back as %v", err)
			}
			checkBalanced(t, it)
			g, _ = callGlobal(it, "counting", data.Int(10))
			func() {
				defer func() { _ = recover() }()
				_ = it.Iterate(g, func(data.Value) error { panic("consumer") })
			}()
			checkBalanced(t, it)
		}
	})
}

// TestGeneratorPulls: next() starts a coroutine, a drain does not.
func TestGeneratorPulls(t *testing.T) {
	onBothTiers(t, genSemanticsSrc, func(t *testing.T, it *Interp) {
		before := mGenPulls.Value()
		if _, err := callGlobal(it, "brk"); err != nil {
			t.Fatal(err)
		}
		if d := mGenPulls.Value() - before; d != 0 {
			t.Fatalf("a drain started %d coroutines", d)
		}
		if _, err := callGlobal(it, "pull_then_drain"); err != nil {
			t.Fatal(err)
		}
		if d := mGenPulls.Value() - before; d != 1 {
			t.Fatalf("next() started %d coroutines, want 1", d)
		}
	})
}

// goroutinesBack waits for the goroutine count to fall to n.
func goroutinesBack(t *testing.T, n int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbandonedPullStops: a pulled generator dropped without close()
// is stopped once it is collected, so its coroutine does not outlive it.
func TestAbandonedPullStops(t *testing.T) {
	const src = `
def firsts(xs):
    return next((x for x in xs if x > 1), None)
`
	onBothTiers(t, src, func(t *testing.T, it *Interp) {
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			if v, err := callGlobal(it, "firsts", data.NewList([]data.Value{data.Int(1), data.Int(2), data.Int(3)})); err != nil || v.I != 2 {
				t.Fatalf("got %v, %v, want 2", v, err)
			}
		}
		for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		goroutinesBack(t, before)
	})
}
