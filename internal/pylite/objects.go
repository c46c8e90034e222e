package pylite

import (
	"fmt"
	"iter"
	"runtime"
	"sync/atomic"

	"qfusor/internal/data"
	"qfusor/internal/obs"
)

// Ctx gives builtins and value methods the ability to call back into
// PyLite callables (sorted key functions, map/filter, generator pumps)
// regardless of whether the caller is the interpreter or compiled code.
type Ctx struct {
	it *Interp
}

// Call invokes fn (any callable Value) with positional args.
func (c *Ctx) Call(fn data.Value, args []data.Value) (data.Value, error) {
	return c.it.Call(fn, args)
}

// FuncValue is a user-defined function or lambda (a runtime object).
type FuncValue struct {
	Name   string
	Params []Param
	Vararg string
	Body   []Stmt // nil for lambdas
	Expr   Expr   // lambda body
	IsGen  bool
	Env    *Env // defining environment (closure); its chain ends at the module scope

	// compiled is the closure-compiled version installed by the JIT
	// (atomic: read on every call). hot counts interpreter entries (the
	// tracing JIT's hot-loop counter); uncompilable marks permanent
	// interpreter fallback.
	compiled     atomic.Pointer[CompiledFunc]
	hot          atomic.Int64
	uncompilable atomic.Bool

	// bc is the register-bytecode program for the vectorized VM tier;
	// bcFailed marks a permanent BCCompile rejection so eligibility
	// checks don't re-run the compiler per query. A redefined UDF is a
	// new FuncValue, so both caches are naturally epoch-fenced.
	bc       atomic.Pointer[Program]
	bcFailed atomic.Bool
}

// Bytecode returns the cached VM program, if one was compiled.
func (f *FuncValue) Bytecode() *Program { return f.bc.Load() }

// SetBytecode installs a VM program (nil marks the function permanently
// ineligible for the VM tier).
func (f *FuncValue) SetBytecode(p *Program) {
	if p == nil {
		f.bcFailed.Store(true)
		return
	}
	f.bc.Store(p)
}

// BytecodeFailed reports whether bytecode compilation previously failed.
func (f *FuncValue) BytecodeFailed() bool { return f.bcFailed.Load() }

// Compiled returns the JIT-compiled version, if one was installed.
func (f *FuncValue) Compiled() *CompiledFunc { return f.compiled.Load() }

// SetCompiled installs a compiled version of the function (nil marks
// the function permanently uncompilable).
func (f *FuncValue) SetCompiled(c *CompiledFunc) {
	if c == nil {
		f.uncompilable.Store(true)
		return
	}
	f.compiled.Store(c)
}

// Uncompilable reports whether compilation previously failed.
func (f *FuncValue) Uncompilable() bool { return f.uncompilable.Load() }

// Heat bumps the hot counter and reports the new count.
func (f *FuncValue) Heat() int { return int(f.hot.Add(1)) }

func (f *FuncValue) String() string { return fmt.Sprintf("<function %s>", f.Name) }

// Class is a user-defined class (methods only; the aggregate UDF model).
type Class struct {
	Name    string
	Methods map[string]*FuncValue
}

func (c *Class) String() string { return fmt.Sprintf("<class %s>", c.Name) }

// Instance is an object of a user-defined class.
type Instance struct {
	Class  *Class
	Fields map[string]data.Value
}

func (in *Instance) String() string { return fmt.Sprintf("<%s instance>", in.Class.Name) }

// BoundMethod pairs an instance with one of its methods.
type BoundMethod struct {
	Self data.Value
	Fn   *FuncValue
}

// Builtin is a native function exposed to PyLite code. Fn may read args
// until it returns but must not keep the slice (it may alias the
// runtime's argument stack, which the next call reuses): a builtin that
// needs the values later — a lazy iterator, a generator — copies them or
// captures what it derives from them.
type Builtin struct {
	Name string
	Fn   func(ctx *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error)
	// effect marks print and the container methods that mutate their
	// receiver (vmMutatingMethods): the VM never runs them (vmCall).
	effect bool
}

// newBuiltin makes a Builtin, deciding its effect once from its name.
func newBuiltin(name string, fn func(ctx *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error)) data.Value {
	return data.Object(&Builtin{Name: name, Fn: fn, effect: name == "print" || vmMutatingMethods[name]})
}

func (b *Builtin) String() string { return fmt.Sprintf("<builtin %s>", b.Name) }

// ModuleObj is an imported module (json, re, math).
type ModuleObj struct {
	Name  string
	Attrs map[string]data.Value
}

// Set is a Python set with deterministic (insertion) iteration order.
type Set struct {
	keys []string
	m    map[string]data.Value
}

// NewSet creates an empty set.
func NewSet() *Set { return &Set{m: make(map[string]data.Value)} }

// Add inserts v, reporting whether it was new.
func (s *Set) Add(v data.Value) bool {
	k := v.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = v
	s.keys = append(s.keys, k)
	return true
}

// Has reports membership.
func (s *Set) Has(v data.Value) bool {
	_, ok := s.m[v.Key()]
	return ok
}

// Discard removes v if present, reporting whether it was present.
func (s *Set) Discard(v data.Value) bool {
	k := v.Key()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	for i, kk := range s.keys {
		if kk == k {
			s.keys = append(s.keys[:i], s.keys[i+1:]...)
			break
		}
	}
	return true
}

// Len returns the number of elements.
func (s *Set) Len() int { return len(s.keys) }

// Items returns the elements in insertion order.
func (s *Set) Items() []data.Value {
	out := make([]data.Value, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, s.m[k])
	}
	return out
}

// RangeObj is a lazy range(start, stop, step).
type RangeObj struct {
	Start, Stop, Step int64
}

// Len returns the number of elements in the range.
func (r *RangeObj) Len() int64 {
	if r.Step > 0 {
		if r.Stop <= r.Start {
			return 0
		}
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	}
	if r.Stop >= r.Start {
		return 0
	}
	step := -r.Step
	return (r.Start - r.Stop + step - 1) / step
}

// ExcValue is an exception object created by calling an exception class.
type ExcValue struct {
	Type string
	Msg  string
}

func (e *ExcValue) String() string { return fmt.Sprintf("%s(%s)", e.Type, e.Msg) }

// pyStr is Python's str(v): an exception gives its message.
func pyStr(v data.Value) string {
	if e, ok := v.P.(*ExcValue); ok && v.Kind == data.KindObject {
		return e.Msg
	}
	return v.String()
}

// Generator is a PyLite generator: one lazy producer whose body runs at
// most once, started by its first consumer. The body comes from a
// generator function, a generator expression or a Go builtin (enumerate,
// zip, map, filter, itertools.*, ffi's table input), and is driven one
// of two ways:
//
//   - pushed: a drain (Interp.Iterate — every for loop and comprehension
//     on both tiers, and ffi's eachRow) runs the body on the consumer's
//     goroutine and runtime with the consumer as its yield: no buffer, no
//     coroutine, no limit;
//   - pulled: Next (next(), zip, a loop over a generator already started)
//     runs the body as a coroutine (iter.Pull) on a worker view of the
//     runtime that made the generator. The view's counters fold back
//     when the body ends, and Close stops it (the collector calls Close
//     on a pulled generator dropped unclosed).
//
// A consumer that leaves a drain early (an error, break or return)
// unwinds the body with errGenStopped, which no except clause catches;
// the generator is then finished, where CPython would leave it
// suspended. See DESIGN.md §2.
type Generator struct {
	body func(it *Interp, yield func(data.Value) error) error
	it   *Interp // the runtime that made it; a pulled body runs on a view of it

	running bool // the body is executing: a drain, or a pull step
	done    bool // no item is left to consume
	next    func() (data.Value, bool)
	stop    func()
	err     *error // a pulled body's terminal error
}

// NewGenerator makes a generator that runs body when it is first
// consumed; it is the runtime making it.
func NewGenerator(it *Interp, body func(it *Interp, yield func(data.Value) error) error) *Generator {
	return &Generator{body: body, it: it}
}

// mGenPulls counts the bodies started as coroutines.
var mGenPulls = obs.Default.Counter("pylite.generator_pulls")

// drain calls fn with every item g yields. A generator that has not
// started runs its body on it with fn as the yield; the argument stack
// is restored on every exit, a panic included. Any other is pulled.
func (g *Generator) drain(it *Interp, fn func(data.Value) error) error {
	if g.running || g.done || g.next != nil {
		return each(g, fn)
	}
	g.running, g.done = true, true
	base := len(it.args)
	defer func() {
		g.running = false
		it.popArgs(base)
	}()
	var cerr error
	err := g.body(it, func(v data.Value) error {
		if cerr == nil {
			cerr = fn(v)
		}
		if cerr != nil {
			return errGenStopped
		}
		return nil
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// Next pulls the next yielded value. ok=false means exhaustion; err is
// the body's terminal error if it raised.
func (g *Generator) Next() (v data.Value, ok bool, err error) {
	if g.running {
		return data.Null, false, valueErrf("generator already executing")
	}
	if g.done {
		return data.Null, false, nil
	}
	if g.next == nil {
		g.pull()
	}
	g.running = true
	v, ok = g.next()
	g.running = false
	if ok {
		return v, true, nil
	}
	g.done = true
	return data.Null, false, *g.err
}

// pull starts the body as a coroutine on a view of its own: the
// consumer's runtime stays the consumer's, whose stacks the suspended
// body would otherwise interleave with.
func (g *Generator) pull() {
	mGenPulls.Inc()
	body, owner, run := g.body, g.it, g.it.Worker()
	errp := new(error)
	g.err = errp
	g.next, g.stop = iter.Pull(func(yield func(data.Value) bool) {
		err := body(run, func(v data.Value) error {
			// Fold at every yield: a body left suspended is not merged
			// until it is closed, after its query's ledger may be read.
			run.fold()
			if !yield(v) {
				return errGenStopped
			}
			return nil
		})
		if err != errGenStopped {
			*errp = err
		}
		owner.MergeStats(run)
	})
	// A generator abandoned unclosed is stopped when it is collected, as
	// CPython closes one: the coroutine refers to the body, not to g, so
	// it does not keep g reachable.
	runtime.SetFinalizer(g, (*Generator).Close)
}

// Close abandons the generator, stopping a pulled body. Safe to call
// multiple times and after exhaustion; a no-op while the body runs.
func (g *Generator) Close() {
	if g.running {
		return
	}
	if g.stop != nil {
		g.stop()
	}
	g.done = true
}

func (g *Generator) String() string { return "<generator>" }

// Iterator is the pull-style iteration protocol (ValueIter): zip pulls
// its sources through it, and Iterate everything but a generator it can
// drain.
type Iterator interface {
	Next() (data.Value, bool, error)
	Close()
}

type sliceIter struct {
	items []data.Value
	i     int
}

func (it *sliceIter) Next() (data.Value, bool, error) {
	if it.i >= len(it.items) {
		return data.Null, false, nil
	}
	v := it.items[it.i]
	it.i++
	return v, true, nil
}

func (it *sliceIter) Close() {}

type rangeIter struct {
	r   *RangeObj
	cur int64
}

func (it *rangeIter) Next() (data.Value, bool, error) {
	if (it.r.Step > 0 && it.cur >= it.r.Stop) || (it.r.Step < 0 && it.cur <= it.r.Stop) {
		return data.Null, false, nil
	}
	v := it.cur
	it.cur += it.r.Step
	return data.Int(v), true, nil
}

func (it *rangeIter) Close() {}

type strIter struct {
	s string
	i int
}

func (it *strIter) Next() (data.Value, bool, error) {
	if it.i >= len(it.s) {
		return data.Null, false, nil
	}
	// Byte-oriented like the data we process (ASCII-heavy); runes would
	// also work but cost more.
	v := data.Str(it.s[it.i : it.i+1])
	it.i++
	return v, true, nil
}

func (it *strIter) Close() {}

// ValueIter returns an Iterator over v, or a TypeError if v is not
// iterable.
func ValueIter(v data.Value) (Iterator, error) {
	switch v.Kind {
	case data.KindList:
		return &sliceIter{items: v.List().Items}, nil
	case data.KindString:
		return &strIter{s: v.S}, nil
	case data.KindDict:
		d := v.Dict()
		items := make([]data.Value, len(d.Keys))
		for i, k := range d.Keys {
			items[i] = data.Str(k)
		}
		return &sliceIter{items: items}, nil
	case data.KindObject:
		switch o := v.P.(type) {
		case *Generator:
			return o, nil
		case *RangeObj:
			return &rangeIter{r: o, cur: o.Start}, nil
		case *Set:
			return &sliceIter{items: o.Items()}, nil
		}
	}
	return nil, typeErrf("'%s' object is not iterable", v.TypeName())
}

// Iterate calls fn with every item of v, on it: a generator that has
// not started runs with fn as its yield (see Generator), anything else
// is pulled. An error from fn stops the iteration and is returned as is.
func (it *Interp) Iterate(v data.Value, fn func(data.Value) error) error {
	if l := v.List(); l != nil {
		// The common case needs no iterator.
		for _, x := range l.Items {
			if err := fn(x); err != nil {
				return err
			}
		}
		return nil
	}
	if g, ok := v.P.(*Generator); ok && v.Kind == data.KindObject {
		return g.drain(it, fn)
	}
	src, err := ValueIter(v)
	if err != nil {
		return err
	}
	return each(src, fn)
}

// each pulls every item of src through fn and closes src.
func each(src Iterator, fn func(data.Value) error) error {
	defer src.Close()
	for {
		x, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(x); err != nil {
			return err
		}
	}
}
