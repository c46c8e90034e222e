package pylite

import (
	"strings"
	"testing"

	"qfusor/internal/data"
)

// vmCompile parses src, fetches fn, and bytecode-compiles it.
func vmCompile(t *testing.T, src, fn string) (*Interp, *FuncValue, *Program) {
	t.Helper()
	it := NewInterp()
	if err := it.Exec(src); err != nil {
		t.Fatalf("exec: %v", err)
	}
	v, ok := it.Global(fn)
	if !ok {
		t.Fatalf("function %s not defined", fn)
	}
	fv := v.P.(*FuncValue)
	prog, err := BCCompile(fv)
	if err != nil {
		t.Fatalf("BCCompile(%s): %v", fn, err)
	}
	return it, fv, prog
}

// runVM executes prog with args through a fresh register file.
func runVM(t *testing.T, it *Interp, prog *Program, args ...data.Value) (data.Value, error) {
	t.Helper()
	regs := make([]data.Value, prog.NumRegs)
	copy(regs, args)
	for i := len(args); i < prog.NumParams; i++ {
		if prog.Defaults == nil || i < prog.Required {
			t.Fatalf("missing required arg %d", i)
		}
		regs[i] = prog.Defaults[i]
	}
	return prog.RunVM(it, regs)
}

// checkParity asserts the VM and the interpreter agree on fn(args).
func checkParity(t *testing.T, src, fn string, argSets ...[]data.Value) {
	t.Helper()
	it, fv, prog := vmCompile(t, src, fn)
	for _, args := range argSets {
		want, werr := it.Call(data.Object(fv), args)
		got, gerr := runVM(t, it, prog, args...)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s(%v): interp err=%v, vm err=%v", fn, args, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if want.Repr() != got.Repr() {
			t.Errorf("%s(%v): interp=%s vm=%s", fn, args, want.Repr(), got.Repr())
		}
	}
}

func ints(xs ...int64) []data.Value {
	out := make([]data.Value, len(xs))
	for i, x := range xs {
		out[i] = data.Int(x)
	}
	return out
}

func TestVMArithmetic(t *testing.T) {
	checkParity(t, `
def f(a, b):
    return a*3 + b % 5 - a // 2
`, "f", ints(7, 13), ints(-4, 9), ints(0, 0))
}

func TestVMFloatAndUnary(t *testing.T) {
	checkParity(t, `
def f(x):
    return -x / 2.0 + (not x)
`, "f", []data.Value{data.Float(3.5)}, []data.Value{data.Float(0)})
}

func TestVMCompareChains(t *testing.T) {
	checkParity(t, `
def f(a, b, c):
    return a < b <= c
`, "f", ints(1, 2, 3), ints(2, 2, 1), ints(3, 1, 2))
}

func TestVMCompareOps(t *testing.T) {
	checkParity(t, `
def f(a, b):
    return [a == b, a != b, a >= b, a in [1, 2, b], a is None]
`, "f", ints(1, 2), ints(2, 2))
}

func TestVMBoolOpShortCircuit(t *testing.T) {
	checkParity(t, `
def f(a, b):
    return (a and b) or (a + 1)
`, "f", ints(0, 5), ints(3, 0), ints(2, 7))
}

func TestVMIfElse(t *testing.T) {
	checkParity(t, `
def f(x):
    if x > 10:
        return "big"
    elif x > 0:
        return "small"
    else:
        return "neg"
`, "f", ints(11), ints(5), ints(-2))
}

func TestVMIfExp(t *testing.T) {
	checkParity(t, `
def f(x):
    return "yes" if x % 2 == 0 else "no"
`, "f", ints(4), ints(5))
}

func TestVMWhileLoop(t *testing.T) {
	checkParity(t, `
def f(n):
    s = 0
    i = 0
    while i < n:
        s += i
        i += 1
        if s > 100:
            break
    else_done = s
    return else_done
`, "f", ints(10), ints(50), ints(0))
}

func TestVMForRange(t *testing.T) {
	checkParity(t, `
def f(n):
    s = 0
    for i in range(n):
        if i % 3 == 0:
            continue
        s += i
    return s
`, "f", ints(10), ints(0), ints(1))
}

func TestVMForString(t *testing.T) {
	checkParity(t, `
def f(s):
    out = ""
    for ch in s:
        out = ch + out
    return out
`, "f", []data.Value{data.Str("hello")}, []data.Value{data.Str("")})
}

func TestVMForListUnpack(t *testing.T) {
	checkParity(t, `
def f(n):
    pairs = [[1, 2], [3, 4], [n, n]]
    s = 0
    for a, b in pairs:
        s += a * b
    return s
`, "f", ints(5))
}

func TestVMTupleSwap(t *testing.T) {
	checkParity(t, `
def f(a, b):
    a, b = b, a
    return a * 100 + b
`, "f", ints(3, 7))
}

func TestVMStringMethods(t *testing.T) {
	checkParity(t, `
def f(s):
    return s.strip().lower().replace("a", "_").split("_")
`, "f", []data.Value{data.Str("  BaNaNa  ")}, []data.Value{data.Str("x")})
}

func TestVMStringSliceIndex(t *testing.T) {
	checkParity(t, `
def f(s):
    return s[1:4] + s[-1] + s[::2]
`, "f", []data.Value{data.Str("abcdefg")})
}

func TestVMListOps(t *testing.T) {
	checkParity(t, `
def f(n):
    xs = []
    for i in range(n):
        xs.append(i * i)
    xs.reverse()
    return xs + [len(xs)]
`, "f", ints(5), ints(0))
}

func TestVMListComp(t *testing.T) {
	checkParity(t, `
def f(n):
    return [i * 2 for i in range(n) if i % 2 == 1]
`, "f", ints(8), ints(0))
}

func TestVMNestedComp(t *testing.T) {
	checkParity(t, `
def f(n):
    return [i * 10 + j for i in range(n) for j in range(i)]
`, "f", ints(4))
}

func TestVMSetComp(t *testing.T) {
	checkParity(t, `
def f(s):
    return sorted({c for c in s})
`, "f", []data.Value{data.Str("mississippi")})
}

func TestVMDictOps(t *testing.T) {
	checkParity(t, `
def f(k):
    d = {"a": 1, "b": 2}
    d["c"] = 3
    d[k] = d.get("a", 0) + 10
    return sorted(d.items())
`, "f", []data.Value{data.Str("z")}, []data.Value{data.Str("a")})
}

func TestVMDictIteration(t *testing.T) {
	checkParity(t, `
def f():
    d = {"x": 1, "y": 2, "z": 3}
    out = []
    for k in d:
        out.append(k)
    return out
`, "f", nil)
}

func TestVMBuiltins(t *testing.T) {
	checkParity(t, `
def f(x):
    return [abs(-x), min(x, 3), max(x, 3), str(x), int("12"), float(x), bool(x), sum([x, 1])]
`, "f", ints(7), ints(0))
}

func TestVMSorted(t *testing.T) {
	checkParity(t, `
def f():
    return sorted([3, 1, 2]) + sorted(["b", "a"])
`, "f", nil)
}

func TestVMJSONModule(t *testing.T) {
	checkParity(t, `
import json
def f(s):
    d = json.loads(s)
    return d.get("id", -1)
`, "f", []data.Value{data.Str(`{"id": 42}`)}, []data.Value{data.Str(`{}`)})
}

func TestVMDefaults(t *testing.T) {
	it, fv, prog := vmCompile(t, `
def f(a, b=10):
    return a + b
`, "f")
	if prog.Required != 1 || prog.NumParams != 2 {
		t.Fatalf("Required=%d NumParams=%d", prog.Required, prog.NumParams)
	}
	want, _ := it.Call(data.Object(fv), ints(5))
	regs := make([]data.Value, prog.NumRegs)
	regs[0] = data.Int(5)
	regs[1] = prog.Defaults[1]
	got, err := prog.RunVM(it, regs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Repr() != got.Repr() {
		t.Errorf("interp=%s vm=%s", want.Repr(), got.Repr())
	}
}

func TestVMNoReturnIsNone(t *testing.T) {
	checkParity(t, `
def f(x):
    y = x + 1
`, "f", ints(3))
}

func TestVMAssertPass(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(x):
    assert x > 0
    return x
`, "f")
	got, err := runVM(t, it, prog, data.Int(5))
	if err != nil || got.I != 5 {
		t.Fatalf("got %v err=%v", got, err)
	}
	// Failing assert must bail (the closure tier raises the authoritative
	// AssertionError).
	_, err = runVM(t, it, prog, data.Int(-1))
	if !IsVMBail(err) {
		t.Fatalf("want bail on failed assert, got %v", err)
	}
}

// ---- bailout points ----

func TestVMBailRaise(t *testing.T) {
	it, fv, prog := vmCompile(t, `
def f(x):
    if x < 0:
        raise ValueError("neg")
    return x
`, "f")
	closure, err := Compile(fv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := closure.Call(it, []data.Value{data.Int(3)}, nil)
	if got, verr := runVM(t, it, prog, data.Int(3)); verr != nil || err != nil || got.I != want.I {
		t.Fatalf("clean path: vm %v err=%v, closure %v err=%v", got, verr, want, err)
	}
	if _, err := runVM(t, it, prog, data.Int(-3)); !IsVMBail(err) {
		t.Fatalf("want bail on raise path, got %v", err)
	}
	// The bail re-runs the call on the closure tier, which raises.
	if _, err := closure.Call(it, []data.Value{data.Int(-3)}, nil); err == nil || !strings.Contains(err.Error(), "ValueError") {
		t.Fatalf("closure tier on the raise path: %v, want a ValueError", err)
	}
}

func TestVMBailUserFunctionCall(t *testing.T) {
	it, _, prog := vmCompile(t, `
def g(x):
    return x + 1
def f(x):
    return g(x)
`, "f")
	if _, err := runVM(t, it, prog, data.Int(1)); !IsVMBail(err) {
		t.Fatalf("want bail on user-function call, got %v", err)
	}
}

func TestVMBailCallableArg(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(x):
    return str(x)
`, "f")
	g, _ := it.Global("str")
	_ = g
	fn, _ := it.Global("f")
	if _, err := runVM(t, it, prog, fn); !IsVMBail(err) {
		t.Fatalf("want bail on callable argument, got %v", err)
	}
}

func TestVMBailPrint(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(x):
    print(x)
    return x
`, "f")
	if _, err := runVM(t, it, prog, data.Int(1)); !IsVMBail(err) {
		t.Fatalf("want bail on print, got %v", err)
	}
}

func TestVMBailParamMutation(t *testing.T) {
	// Appending to a parameter mutates caller-visible state: the compiler
	// must emit a bail BEFORE the mutation runs.
	it, _, prog := vmCompile(t, `
def f(xs):
    xs.append(1)
    return xs
`, "f")
	arg := data.NewList([]data.Value{data.Int(9)})
	if _, err := runVM(t, it, prog, arg); !IsVMBail(err) {
		t.Fatalf("want bail on param mutation, got %v", err)
	}
	if len(arg.List().Items) != 1 {
		t.Fatalf("VM mutated the argument before bailing: %v", arg.Repr())
	}
}

func TestVMBailParamIndexStore(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(xs):
    xs[0] = 99
    return xs
`, "f")
	arg := data.NewList([]data.Value{data.Int(9)})
	if _, err := runVM(t, it, prog, arg); !IsVMBail(err) {
		t.Fatalf("want bail on param index store, got %v", err)
	}
	if arg.List().Items[0].I != 9 {
		t.Fatal("VM mutated the argument before bailing")
	}
}

func TestVMFreshMutationAllowed(t *testing.T) {
	// Mutating a locally constructed container is safe and must NOT bail.
	checkParity(t, `
def f(n):
    xs = list(range(n))
    xs[0] = -1
    xs.append(n)
    d = {}
    d["k"] = n
    return [xs, sorted(d.keys())]
`, "f", ints(4))
}

func TestVMBailNonIterable(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(x):
    s = 0
    for i in x:
        s += i
    return s
`, "f")
	if _, err := runVM(t, it, prog, data.Int(5)); !IsVMBail(err) {
		t.Fatalf("want bail on non-iterable, got %v", err)
	}
	want := data.NewList(ints(1, 2, 3))
	got, err := runVM(t, it, prog, want)
	if err != nil || got.I != 6 {
		t.Fatalf("list path: %v err=%v", got, err)
	}
}

func TestVMBailGeneratorIteration(t *testing.T) {
	it, _, prog := vmCompile(t, `
def f(g):
    s = 0
    for i in g:
        s += i
    return s
`, "f")
	// Build a generator value via a generator function.
	if err := it.Exec("def gen(n):\n    for i in range(n):\n        yield i\n"); err != nil {
		t.Fatal(err)
	}
	gv, _ := it.Global("gen")
	g, err := it.Call(gv, ints(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runVM(t, it, prog, g); !IsVMBail(err) {
		t.Fatalf("want bail on generator iteration, got %v", err)
	}
}

// ---- compile-time rejection (ineligible functions) ----

func TestVMRejects(t *testing.T) {
	cases := map[string]string{
		"generator": "def f(n):\n    yield n\n",
		"tryexcept": "def f(x):\n    try:\n        return int(x)\n    except:\n        return 0\n",
		"globaldec": "def f():\n    global g\n    g = 1\n",
		"kwargs":    "def f(xs):\n    return sorted(xs, key=len)\n",
		"nested":    "def f():\n    def g():\n        return 1\n    return g()\n",
		"lambda":    "def f(xs):\n    k = lambda v: v\n    return k(xs)\n",
		"import":    "def f():\n    import json\n    return 1\n",
		"del":       "def f(d):\n    del d[\"k\"]\n    return d\n",
	}
	for name, src := range cases {
		it := NewInterp()
		if err := it.Exec(src); err != nil {
			t.Fatalf("%s: exec: %v", name, err)
		}
		v, _ := it.Global("f")
		if _, err := BCCompile(v.P.(*FuncValue)); err == nil {
			t.Errorf("%s: expected BCCompile rejection", name)
		} else if !strings.Contains(err.Error(), "closure-tier only") &&
			!strings.Contains(err.Error(), "unsupported") {
			t.Errorf("%s: unexpected rejection message %q", name, err)
		}
	}
}

func TestVMBytecodeCacheOnFuncValue(t *testing.T) {
	_, fv, prog := vmCompile(t, "def f(x):\n    return x\n", "f")
	if fv.Bytecode() != nil {
		t.Fatal("Bytecode should start nil")
	}
	fv.SetBytecode(prog)
	if fv.Bytecode() != prog {
		t.Fatal("SetBytecode did not install")
	}
	fv.SetBytecode(nil)
	if !fv.BytecodeFailed() {
		t.Fatal("SetBytecode(nil) should mark failure")
	}
	if fv.Bytecode() != prog {
		t.Fatal("failure mark should not clear installed program")
	}
}

// TestVMWorkloadUDFs runs the actual UDFBench-style bodies the bench
// uses against interpreter output over representative inputs.
func TestVMWorkloadUDFs(t *testing.T) {
	src := `
import json
def lower(s):
    return s.lower()
def extractid(s):
    d = json.loads(s)
    return d.get("id", -1)
def cleanterms(s):
    out = []
    for w in s.split(" "):
        w = w.strip()
        if len(w) > 2:
            out.append(w.lower())
    return " ".join(out)
`
	for fn, args := range map[string][]data.Value{
		"lower":      {data.Str("HeLLo World")},
		"extractid":  {data.Str(`{"id": 7, "x": "y"}`)},
		"cleanterms": {data.Str("  The Quick IS brown a  FOX  ")},
	} {
		checkParity(t, src, fn, []data.Value{args[0]})
	}
}
