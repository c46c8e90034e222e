package pylite

import (
	"fmt"
	"testing"

	"qfusor/internal/data"
)

// The module scope binds each name to a cell, which the closure tier and
// the VM resolve once, when a body is compiled. These tests run one
// script of definitions and calls on each tier: every function is
// compiled before the names it reads are defined, rebound or deleted,
// and every call must still see the binding current at the call.

const cellsModule = `
def uses_later(s):
    return s + LATER

def calls_helper(s):
    return helper(s)

def get_helper():
    return helper

def measure(s):
    return len(s)

def get_len():
    return len

def missing():
    return no_such_name

def make_adder(k):
    def add(m):
        return m + k
    return add
`

// cellsStep defines (exec) and then calls fn(arg), whose result's repr
// (an object's String) must be want; a want starting with "error: " is
// the error text.
type cellsStep struct {
	exec, fn, arg, want string
}

var cellsSteps = []cellsStep{
	// A name defined after its caller was compiled is seen; before, the
	// NameError text is the interpreter's.
	{fn: "uses_later", arg: "a", want: "error: NameError: name 'LATER' is not defined"},
	{exec: "LATER = '!'", fn: "uses_later", arg: "a", want: `"a!"`},
	{exec: "LATER = '?'", fn: "uses_later", arg: "a", want: `"a?"`},
	{fn: "missing", want: "error: NameError: name 'no_such_name' is not defined"},
	// A Define that rebinds a helper is seen by an already-compiled caller.
	{exec: "def helper(s):\n    return s + '1'", fn: "calls_helper", arg: "x", want: `"x1"`},
	{exec: "def helper(s):\n    return s + '2'", fn: "calls_helper", arg: "x", want: `"x2"`},
	{fn: "get_helper", want: "helper"},
	// A module-level binding shadows the builtin; del restores it.
	{fn: "measure", arg: "abc", want: "3"},
	{exec: "len = lambda s: 42", fn: "measure", arg: "abc", want: "42"},
	{fn: "get_len", want: "<function <lambda>>"},
	{exec: "del len", fn: "measure", arg: "abc", want: "3"},
	{fn: "get_len", want: "<builtin len>"},
	// A nested function sees its enclosing locals before the module scope.
	{exec: "add3 = make_adder(3)", fn: "add3", arg: "4", want: "7"},
	{exec: "k = 100", fn: "add3", arg: "4", want: "7"},
}

func TestModuleCellsOnEveryTier(t *testing.T) {
	for _, tier := range []string{"interp", "closure", "vm"} {
		t.Run(tier, func(t *testing.T) {
			it := NewInterp()
			if err := it.Exec(cellsModule); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"uses_later", "calls_helper", "get_helper", "measure", "get_len", "missing"} {
				compileOn(t, it, tier, name)
			}
			for i, st := range cellsSteps {
				if st.exec != "" {
					if err := it.Exec(st.exec); err != nil {
						t.Fatalf("step %d: exec %q: %v", i, st.exec, err)
					}
				}
				var args []data.Value
				switch st.arg {
				case "":
				case "4":
					args = []data.Value{data.Int(4)}
				default:
					args = []data.Value{data.Str(st.arg)}
				}
				fn := compileOn(t, it, tier, st.fn)
				got, err := callOn(it, tier, fn, args)
				if err != nil {
					got = data.Str("error: " + err.Error())
					if got.S != st.want {
						t.Fatalf("step %d: %s(%s) failed: %v, want %s", i, st.fn, st.arg, err, st.want)
					}
					continue
				}
				want := st.want
				if want == "helper" {
					h, _ := it.Global("helper")
					if got.P != h.P {
						t.Fatalf("step %d: get_helper returned %s, not the current helper", i, got.Repr())
					}
					continue
				}
				text := got.Repr()
				if got.Kind == data.KindObject {
					text = fmt.Sprint(got.P)
				}
				if text != want {
					t.Fatalf("step %d: %s(%s) = %s, want %s", i, st.fn, st.arg, text, want)
				}
			}
		})
	}
}

// compileOn fetches the module function name and compiles it for tier
// once: the closure tier installs its compiled body, the VM its program.
func compileOn(t *testing.T, it *Interp, tier, name string) *FuncValue {
	t.Helper()
	v, ok := it.Global(name)
	if !ok {
		t.Fatalf("%s is not defined", name)
	}
	fn := v.P.(*FuncValue)
	switch tier {
	case "closure":
		if fn.Compiled() == nil {
			c, err := Compile(fn)
			if err != nil {
				t.Fatalf("Compile(%s): %v", name, err)
			}
			fn.SetCompiled(c)
		}
	case "vm":
		if fn.Bytecode() == nil {
			p, err := BCCompile(fn)
			if err != nil {
				t.Fatalf("BCCompile(%s): %v", name, err)
			}
			fn.SetBytecode(p)
		}
	}
	return fn
}

// callOn calls fn on tier. A VM call that bails re-runs on the closure
// tier, as a fused wrapper's does.
func callOn(it *Interp, tier string, fn *FuncValue, args []data.Value) (data.Value, error) {
	if tier != "vm" {
		return it.Call(data.Object(fn), args)
	}
	p := fn.Bytecode()
	regs := make([]data.Value, p.NumRegs)
	copy(regs, args)
	v, err := p.RunVM(it, regs)
	if !IsVMBail(err) {
		return v, err
	}
	if fn.Compiled() == nil {
		c, err := Compile(fn)
		if err != nil {
			return data.Null, err
		}
		fn.SetCompiled(c)
	}
	return it.Call(data.Object(fn), args)
}
