package pylite

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qfusor/internal/data"
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
	Name    string
	Params  []Param
	Vararg  string
	Body    []Stmt // nil for lambdas
	Expr    Expr   // lambda body
	IsGen   bool
	Env     *Env // defining environment (closure)
	Globals *Env

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

// Generator is a suspended PyLite generator. Generator bodies are run
// eagerly in the calling goroutine up to eagerYieldLimit yields (the
// common case: per-tuple table UDFs like combinations produce a handful
// of rows); bodies that exceed the limit — unbounded pipelines,
// inp_datagen over whole columns — are restarted in their own goroutine
// with channel-based suspend/resume. Bodies are assumed deterministic
// up to the first eagerYieldLimit yields (true of the UDF design
// specification's generators; see DESIGN.md).
type Generator struct {
	// Eager mode.
	eager bool
	items []data.Value
	pos   int

	// Goroutine mode.
	ch   chan data.Value
	stop chan struct{}
	errc chan error

	mu       sync.Mutex
	finished bool
	finalErr error
	closed   bool
}

const (
	generatorBuffer = 16
	// eagerYieldLimit bounds how many yields run eagerly before
	// switching to goroutine-based suspension.
	eagerYieldLimit = 1024
)

func newGenerator() *Generator { return &Generator{} }

// errEagerOverflow aborts an eager run that produced too many values.
var errEagerOverflow = &PyError{Type: "__eageroverflow__"}

// start executes the producer. body must emit values via the sink and
// return the terminal error (nil for normal exhaustion). It is invoked
// once eagerly, on it; if the eager run overflows, body is invoked a
// second time inside a goroutine, on a view of its own: the resumed
// producer runs concurrently with its consumer, and an Interp belongs to
// one goroutine. The view's counters fold back into it when the producer
// exits. it is nil for producers that run no PyLite code.
func (g *Generator) start(it *Interp, body func(it *Interp, sink *genSink) error) {
	eager := &genSink{eagerLimit: eagerYieldLimit}
	err := body(it, eager)
	if err != errEagerOverflow {
		g.eager = true
		g.items = eager.eagerItems
		g.finished = true
		if err != errGenStopped {
			g.finalErr = err
		}
		return
	}
	// Overflow: restart suspended in a goroutine.
	g.ch = make(chan data.Value, generatorBuffer)
	g.stop = make(chan struct{})
	g.errc = make(chan error, 1)
	sink := &genSink{ch: g.ch, stop: g.stop}
	go func() {
		run := it
		if it != nil {
			run = it.Worker()
		}
		err := body(run, sink)
		if err == errGenStopped {
			err = nil
		}
		if it != nil {
			it.MergeStats(run)
		}
		g.errc <- err
		close(g.ch)
	}()
}

// Next pulls the next yielded value. ok=false means exhaustion; err is
// the body's terminal error if it raised.
func (g *Generator) Next() (v data.Value, ok bool, err error) {
	if g.eager {
		if g.pos < len(g.items) {
			v = g.items[g.pos]
			g.pos++
			return v, true, nil
		}
		return data.Null, false, g.finalErr
	}
	v, ok = <-g.ch
	if ok {
		return v, true, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.finished {
		g.finalErr = <-g.errc
		g.finished = true
	}
	return data.Null, false, g.finalErr
}

// Close abandons the generator, unblocking and terminating its producer.
// Safe to call multiple times and after exhaustion.
func (g *Generator) Close() {
	if g.eager {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	close(g.stop)
	// Drain so the producer can finish its in-flight send and exit.
	go func() {
		for range g.ch {
		}
	}()
}

func (g *Generator) String() string { return "<generator>" }

// genSink is the producer side of a generator: either an eager
// collector (bounded) or a channel pair.
type genSink struct {
	// Eager mode.
	eagerLimit int
	eagerItems []data.Value
	// Goroutine mode.
	ch   chan data.Value
	stop chan struct{}
}

func (s *genSink) emit(v data.Value) error {
	if s.ch == nil {
		if len(s.eagerItems) >= s.eagerLimit {
			return errEagerOverflow
		}
		s.eagerItems = append(s.eagerItems, v)
		return nil
	}
	select {
	case s.ch <- v:
		return nil
	case <-s.stop:
		return errGenStopped
	}
}

// GoGenerator builds a Generator from a native Go producer. The FFI
// layer uses it to feed engine columns into table UDFs as the paper's
// inp_datagen generator.
func GoGenerator(produce func(yield func(data.Value) error) error) *Generator {
	g := newGenerator()
	g.start(nil, func(_ *Interp, sink *genSink) error {
		return produce(sink.emit)
	})
	return g
}

// ctxGenerator is GoGenerator for a builtin whose producer calls back
// into PyLite: produce calls through the Ctx it is given, which belongs
// to a view of its own once the producer resumes on its own goroutine.
func ctxGenerator(ctx *Ctx, produce func(ctx *Ctx, yield func(data.Value) error) error) *Generator {
	g := newGenerator()
	g.start(ctx.it, func(it *Interp, sink *genSink) error {
		return produce(it.ctx, sink.emit)
	})
	return g
}

// Iterator is the pull-style iteration protocol shared by builtins
// (zip, enumerate, map) and the engine integration.
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

type genIter struct{ g *Generator }

func (it *genIter) Next() (data.Value, bool, error) { return it.g.Next() }
func (it *genIter) Close()                          { it.g.Close() }

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
			return &genIter{g: o}, nil
		case *RangeObj:
			return &rangeIter{r: o, cur: o.Start}, nil
		case *Set:
			return &sliceIter{items: o.Items()}, nil
		}
	}
	return nil, typeErrf("'%s' object is not iterable", v.TypeName())
}

// Iterate drains v through fn; any error from fn aborts iteration.
func Iterate(v data.Value, fn func(data.Value) error) error {
	it, err := ValueIter(v)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		x, ok, err := it.Next()
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
