package pylite

import (
	"runtime"
	"strings"
	"testing"

	"qfusor/internal/data"
)

// runFn parses src, then calls the named function with args on a fresh
// interpreter (JIT disabled).
func runFn(t *testing.T, src, name string, args ...data.Value) (data.Value, error) {
	t.Helper()
	it := NewInterp()
	if err := it.Exec(src); err != nil {
		t.Fatalf("exec: %v", err)
	}
	fn, ok := it.Global(name)
	if !ok {
		t.Fatalf("function %q not defined", name)
	}
	return it.Call(fn, args)
}

// mustRun is runFn but fails the test on error.
func mustRun(t *testing.T, src, name string, args ...data.Value) data.Value {
	t.Helper()
	v, err := runFn(t, src, name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return v
}

func TestScalarArithmetic(t *testing.T) {
	src := `
def f(x, y):
    return (x + y) * 2 - x // y + x % y
`
	v := mustRun(t, src, "f", data.Int(17), data.Int(5))
	// (17+5)*2 - 3 + 2 = 44 - 3 + 2 = 43
	if v.Kind != data.KindInt || v.I != 43 {
		t.Fatalf("got %v, want 43", v)
	}
}

func TestFloorDivAndModNegatives(t *testing.T) {
	src := `
def f(a, b):
    return [a // b, a % b]
`
	v := mustRun(t, src, "f", data.Int(-7), data.Int(2))
	items := v.List().Items
	if items[0].I != -4 || items[1].I != 1 {
		t.Fatalf("got %v, want [-4, 1]", v)
	}
}

func TestStringMethodsChain(t *testing.T) {
	src := `
def f(s):
    return s.strip().lower().replace("-", " ").title()
`
	v := mustRun(t, src, "f", data.Str("  HELLO-world  "))
	if v.S != "Hello World" {
		t.Fatalf("got %q", v.S)
	}
}

func TestListOpsAndComprehension(t *testing.T) {
	src := `
def f(n):
    xs = [i * i for i in range(n) if i % 2 == 0]
    xs.append(100)
    return sum(xs)
`
	v := mustRun(t, src, "f", data.Int(6))
	// 0 + 4 + 16 + 100 = 120
	if v.I != 120 {
		t.Fatalf("got %v, want 120", v)
	}
}

func TestDictAndJSON(t *testing.T) {
	src := `
import json
def f(s):
    d = json.loads(s)
    d["n"] = len(d["items"])
    return json.dumps(d["items"])
`
	v := mustRun(t, src, "f", data.Str(`{"items": ["a", "b", "c"]}`))
	if v.S != `["a","b","c"]` {
		t.Fatalf("got %q", v.S)
	}
}

func TestGeneratorFunction(t *testing.T) {
	src := `
def gen(n):
    for i in range(n):
        yield i * 10

def f(n):
    total = 0
    for x in gen(n):
        total += x
    return total
`
	v := mustRun(t, src, "f", data.Int(5))
	if v.I != 100 {
		t.Fatalf("got %v, want 100", v)
	}
}

func TestGeneratorAbandonedDoesNotLeakDeadlock(t *testing.T) {
	src := `
def gen():
    i = 0
    while True:
        yield i
        i += 1

def f():
    g = gen()
    a = next(g)
    b = next(g)
    g.close()
    return a + b
`
	// next() runs the body as a coroutine; close() must end it.
	onBothTiers(t, src, func(t *testing.T, it *Interp) {
		before := runtime.NumGoroutine()
		for i := 0; i < 3; i++ {
			if v, err := callGlobal(it, "f"); err != nil || v.I != 1 {
				t.Fatalf("got %v, %v, want 1", v, err)
			}
		}
		goroutinesBack(t, before)
	})
}

func TestClassInitStepFinal(t *testing.T) {
	src := `
class sum_agg:
    def init(self):
        self.s = 0
    def step(self, x):
        self.s += x
    def final(self):
        return self.s

def f(xs):
    a = sum_agg()
    a.init()
    for x in xs:
        a.step(x)
    return a.final()
`
	v := mustRun(t, src, "f", data.NewList([]data.Value{data.Int(1), data.Int(2), data.Int(3)}))
	if v.I != 6 {
		t.Fatalf("got %v, want 6", v)
	}
}

func TestTryExceptRaise(t *testing.T) {
	src := `
def f(s):
    try:
        return int(s)
    except ValueError:
        return -1
`
	if v := mustRun(t, src, "f", data.Str("42")); v.I != 42 {
		t.Fatalf("got %v", v)
	}
	if v := mustRun(t, src, "f", data.Str("xx")); v.I != -1 {
		t.Fatalf("got %v", v)
	}
}

func TestRaisePropagates(t *testing.T) {
	src := `
def f():
    raise ValueError("boom")
`
	_, err := runFn(t, src, "f")
	pe, ok := IsPyError(err)
	if !ok || pe.Type != "ValueError" || pe.Msg != "boom" {
		t.Fatalf("got %v", err)
	}
}

func TestLambdaAndSortedKey(t *testing.T) {
	src := `
def f(xs):
    return sorted(xs, key=lambda s: len(s), reverse=True)
`
	v := mustRun(t, src, "f", data.NewList([]data.Value{
		data.Str("bb"), data.Str("a"), data.Str("ccc"),
	}))
	items := v.List().Items
	if items[0].S != "ccc" || items[2].S != "a" {
		t.Fatalf("got %v", v)
	}
}

func TestRegexSub(t *testing.T) {
	src := `
import re
def f(s):
    return re.sub(r"\s+", " ", s).strip()
`
	// Raw strings aren't special-cased in the lexer; use explicit escapes.
	src = strings.ReplaceAll(src, `r"\s+"`, `"\\s+"`)
	v := mustRun(t, src, "f", data.Str("  a   b \t c "))
	if v.S != "a b c" {
		t.Fatalf("got %q", v.S)
	}
}

func TestTupleUnpackAndMultiAssign(t *testing.T) {
	src := `
def f():
    a, b = 1, 2
    a, b = b, a
    c = d = a + b
    return [a, b, c, d]
`
	v := mustRun(t, src, "f")
	items := v.List().Items
	if items[0].I != 2 || items[1].I != 1 || items[2].I != 3 || items[3].I != 3 {
		t.Fatalf("got %v", v)
	}
}

func TestSetOps(t *testing.T) {
	src := `
def f(xs, ys):
    a = set(xs)
    b = set(ys)
    return [len(a & b), len(a | b), len(a - b) if False else len(a.difference(b))]
`
	v := mustRun(t, src, "f",
		data.NewList([]data.Value{data.Int(1), data.Int(2), data.Int(3)}),
		data.NewList([]data.Value{data.Int(2), data.Int(3), data.Int(4)}))
	items := v.List().Items
	if items[0].I != 2 || items[1].I != 4 || items[2].I != 1 {
		t.Fatalf("got %v", v)
	}
}

func TestStringFormatPercentAndFormat(t *testing.T) {
	src := `
def f(name, n):
    a = "%s has %d items" % (name, n)
    b = "{} has {} items".format(name, n)
    return a == b
`
	v := mustRun(t, src, "f", data.Str("cart"), data.Int(3))
	if !v.AsBool() {
		t.Fatalf("format mismatch")
	}
}

func TestSliceSemantics(t *testing.T) {
	src := `
def f(s):
    return [s[1:3], s[:2], s[-2:], s[::-1]]
`
	v := mustRun(t, src, "f", data.Str("abcde"))
	items := v.List().Items
	want := []string{"bc", "ab", "de", "edcba"}
	for i, w := range want {
		if items[i].S != w {
			t.Fatalf("slice %d: got %q want %q", i, items[i].S, w)
		}
	}
}

func TestWhileBreakContinue(t *testing.T) {
	src := `
def f(n):
    total = 0
    i = 0
    while True:
        i += 1
        if i > n:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
`
	v := mustRun(t, src, "f", data.Int(10))
	if v.I != 25 { // 1+3+5+7+9
		t.Fatalf("got %v, want 25", v)
	}
}

func TestVarargsAndStarCall(t *testing.T) {
	src := `
def g(*args):
    return len(args)

def f(xs):
    return g(*xs) + g(1, 2)
`
	v := mustRun(t, src, "f", data.NewList([]data.Value{data.Int(9), data.Int(8), data.Int(7)}))
	if v.I != 5 {
		t.Fatalf("got %v, want 5", v)
	}
}

func TestGlobalStatement(t *testing.T) {
	src := `
counter = 0

def bump():
    global counter
    counter += 1
    return counter

def f():
    bump()
    bump()
    return bump()
`
	v := mustRun(t, src, "f")
	if v.I != 3 {
		t.Fatalf("got %v, want 3", v)
	}
}

func TestItertoolsCombinations(t *testing.T) {
	src := `
import itertools
def f(xs):
    out = []
    for pair in itertools.combinations(xs, 2):
        out.append(pair[0] + "-" + pair[1])
    return out
`
	v := mustRun(t, src, "f", data.NewList([]data.Value{
		data.Str("a"), data.Str("b"), data.Str("c"),
	}))
	items := v.List().Items
	if len(items) != 3 || items[0].S != "a-b" || items[2].S != "b-c" {
		t.Fatalf("got %v", v)
	}
}

// TestInterpVsCompiledParity runs the same functions on the interpreter
// and through Compile, asserting identical results.
func TestInterpVsCompiledParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []data.Value
	}{
		{"arith", "def f(x, y):\n    return x * y + x - y // 2\n", []data.Value{data.Int(11), data.Int(4)}},
		{"strings", "def f(s):\n    return s.upper().replace(\"A\", \"_\")[1:5]\n", []data.Value{data.Str("banana")}},
		{"loop", "def f(n):\n    t = 0\n    for i in range(n):\n        if i % 3 == 0:\n            continue\n        t += i\n    return t\n", []data.Value{data.Int(20)}},
		{"listcomp", "def f(n):\n    return [i * 2 for i in range(n) if i != 3]\n", []data.Value{data.Int(6)}},
		{"dict", "def f(s):\n    d = {}\n    for w in s.split():\n        d[w] = d.get(w, 0) + 1\n    return sorted(d.items())\n", []data.Value{data.Str("a b a c b a")}},
		{"tryexc", "def f(s):\n    try:\n        return float(s)\n    except ValueError:\n        return -1.0\n", []data.Value{data.Str("nope")}},
		{"nested", "def f(x):\n    def g(y):\n        return y + 1\n    return g(g(x))\n", []data.Value{data.Int(5)}},
		{"chain", "def f(a, b, c):\n    return a < b < c\n", []data.Value{data.Int(1), data.Int(2), data.Int(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := NewInterp()
			if err := it.Exec(tc.src); err != nil {
				t.Fatalf("exec: %v", err)
			}
			fnv, _ := it.Global("f")
			fn := fnv.P.(*FuncValue)
			want, err := it.Call(fnv, tc.args)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			cf, err := Compile(fn)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := cf.Call(it, tc.args, nil)
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			if !data.Equal(want, got) {
				t.Fatalf("parity: interp=%v compiled=%v", want, got)
			}
		})
	}
}

func TestJITSwapsInAfterThreshold(t *testing.T) {
	it := NewInterp()
	it.HotThreshold = 10
	if err := it.Exec("def f(x):\n    return x + 1\n"); err != nil {
		t.Fatal(err)
	}
	fnv, _ := it.Global("f")
	for i := 0; i < 50; i++ {
		v, err := it.Call(fnv, []data.Value{data.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != int64(i)+1 {
			t.Fatalf("wrong result at call %d: %v", i, v)
		}
	}
	if it.Stats.Compilations.Load() != 1 {
		t.Fatalf("compilations = %d, want 1", it.Stats.Compilations.Load())
	}
	if it.Stats.CompiledCalls.Load() == 0 {
		t.Fatal("no compiled calls recorded")
	}
}

func TestCompiledGenerator(t *testing.T) {
	src := `
def gen(n):
    for i in range(n):
        yield i

def f(n):
    t = 0
    for x in gen(n):
        t += x
    return t
`
	it := NewInterp()
	it.HotThreshold = 1 // compile immediately
	if err := it.Exec(src); err != nil {
		t.Fatal(err)
	}
	fnv, _ := it.Global("f")
	for i := 0; i < 3; i++ {
		v, err := it.Call(fnv, []data.Value{data.Int(10)})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 45 {
			t.Fatalf("got %v, want 45", v)
		}
	}
}
