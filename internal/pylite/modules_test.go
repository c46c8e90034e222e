package pylite

import (
	"testing"

	"qfusor/internal/data"
)

// tierRun is one way of calling a module's function f: the tree-walking
// interpreter, or the closure tier.
type tierRun struct {
	name string
	call func(t *testing.T, it *Interp, fn *FuncValue, args []data.Value) (data.Value, error)
}

var interpAndClosure = []tierRun{
	{"interp", func(t *testing.T, it *Interp, fn *FuncValue, args []data.Value) (data.Value, error) {
		return it.Call(data.Object(fn), args)
	}},
	{"closure", func(t *testing.T, it *Interp, fn *FuncValue, args []data.Value) (data.Value, error) {
		cf, err := Compile(fn)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return cf.Call(it, args, nil)
	}},
}

// loadFn runs src on a fresh runtime (JIT off) and returns it with f.
func loadFn(t *testing.T, src string) (*Interp, *FuncValue) {
	t.Helper()
	it := NewInterp()
	if err := it.Exec(src); err != nil {
		t.Fatalf("exec: %v", err)
	}
	v, ok := it.Global("f")
	if !ok {
		t.Fatal("f not defined")
	}
	return it, v.P.(*FuncValue)
}

// TestImportBindsPythonNames: `import m` binds m and `from m import a`
// binds a — nothing else — in both tiers, at function and module level.
func TestImportBindsPythonNames(t *testing.T) {
	cases := []struct {
		name, src string
		arg       data.Value
		want      string // Repr of the result, or the PyError type
	}{
		{"from_in_function", "def f(x):\n    from math import sqrt\n    return sqrt(x)\n", data.Float(16), "4.0"},
		{"from_list", "def f(x):\n    from math import sqrt, floor\n    return floor(sqrt(x))\n", data.Float(17), "4"},
		{"from_binds_no_module", "def f(x):\n    from math import sqrt\n    return math.sqrt(x)\n", data.Float(16), "NameError"},
		{"import_binds_no_attrs", "def f(x):\n    import math\n    return log(x)\n", data.Float(1), "NameError"},
		{"import_list", "def f(x):\n    import json, math\n    return json.dumps([math.floor(x)])\n", data.Float(2.5), `"[2]"`},
		{"missing_name", "def f(x):\n    from math import nosuch\n    return x\n", data.Int(1), "ImportError"},
		{"missing_module", "def f(x):\n    import nosuch\n    return x\n", data.Int(1), "ImportError"},
		{"module_level_from", "from json import loads\n\ndef f(s):\n    return loads(s)[1]\n", data.Str("[7, 8]"), "8"},
		{"module_level_import", "import math\n\ndef f(x):\n    return sqrt(x)\n", data.Float(4), "NameError"},
	}
	for _, tc := range cases {
		for _, tier := range interpAndClosure {
			t.Run(tc.name+"/"+tier.name, func(t *testing.T) {
				it, fn := loadFn(t, tc.src)
				v, err := tier.call(t, it, fn, []data.Value{tc.arg})
				got := v.Repr()
				if err != nil {
					pe, ok := IsPyError(err)
					if !ok {
						t.Fatalf("non-Python error: %v", err)
					}
					got = pe.Type
				}
				if got != tc.want {
					t.Fatalf("got %s (err %v), want %s", got, err, tc.want)
				}
			})
		}
	}
}

// TestJSONLoadsRejectsTrailingData: CPython raises "Extra data"; every
// tier raises ValueError.
func TestJSONLoadsRejectsTrailingData(t *testing.T) {
	src := "import json\n\ndef f(s):\n    return json.loads(s)\n"
	check := func(t *testing.T, v data.Value, err error) {
		if pe, ok := IsPyError(err); !ok || pe.Type != "ValueError" {
			t.Fatalf("got %v, %v; want ValueError", v, err)
		}
	}
	for _, tier := range interpAndClosure {
		t.Run(tier.name, func(t *testing.T) {
			it, fn := loadFn(t, src)
			v, err := tier.call(t, it, fn, []data.Value{data.Str("[1, 2] junk")})
			check(t, v, err)
		})
	}
	t.Run("vm", func(t *testing.T) {
		it, _, prog := vmCompile(t, src, "f")
		v, err := runVM(t, it, prog, data.Str("[1, 2] junk"))
		check(t, v, err)
	})
}

// TestMatchObjectMethods: a match's group/groups dispatch through
// callMethod in every tier, including a bound `m.group` called later,
// and the VM runs them without bailing.
func TestMatchObjectMethods(t *testing.T) {
	src := `import re

def f(s):
    m = re.search("([a-z]+)-([0-9]+)", s)
    g = m.group
    return [m.group(), m.group(2), m.groups(), g(1)]
`
	want := `["ab-12", "12", ["ab", "12"], "ab"]`
	for _, tier := range interpAndClosure {
		t.Run(tier.name, func(t *testing.T) {
			it, fn := loadFn(t, src)
			v, err := tier.call(t, it, fn, []data.Value{data.Str("x ab-12 y")})
			if err != nil || v.Repr() != want {
				t.Fatalf("got %v, %v; want %s", v.Repr(), err, want)
			}
		})
	}
	t.Run("vm", func(t *testing.T) {
		src := "import re\n\ndef f(s):\n    m = re.search(\"([a-z]+)-([0-9]+)\", s)\n    return [m.group(2), m.groups()]\n"
		it, _, prog := vmCompile(t, src, "f")
		v, err := runVM(t, it, prog, data.Str("x ab-12 y"))
		if err != nil || v.Repr() != `["12", ["ab", "12"]]` {
			t.Fatalf("got %v, %v", v.Repr(), err)
		}
	})
}
