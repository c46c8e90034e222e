package pylite

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/obs"
)

// Env is a lexical scope. A function's scope is a name→value map chained
// to its parent and used by one goroutine at a time. The module scope
// (NewSharedEnv) is shared by every view of a runtime and binds each
// name to a cell instead: compiled code resolves a free name to its cell
// once, at compile time (resolveGlobal), so a load on the hot path is
// one atomic pointer load and hashes no name.
type Env struct {
	vars   map[string]data.Value
	parent *Env
	// cells is the module scope's name→cell map; nil on every other scope.
	cells *cellMap
}

// cell is one module-scope binding: an atomic pointer to its value, nil
// while the name is unbound. Cells are never removed: a rebind stores
// into the existing cell and `del` stores nil, so code that resolved a
// cell before the name was (re)defined sees every later binding.
type cell struct{ p atomic.Pointer[data.Value] }

func (c *cell) load() (data.Value, bool) {
	if p := c.p.Load(); p != nil {
		return *p, true
	}
	return data.Null, false
}

func (c *cell) store(v data.Value) { c.p.Store(&v) }

// cellMap is the module scope's copy-on-write name→cell map. Readers
// load it without a lock; adding a name publishes a copy under mu, which
// no reader takes. Live UDF definition (the serving plane's CREATE
// FUNCTION) writes the module scope while queries read it.
type cellMap struct {
	m  atomic.Pointer[map[string]*cell]
	mu sync.Mutex
}

// lookup returns name's cell, or nil if no code has named it yet.
func (cm *cellMap) lookup(name string) *cell { return (*cm.m.Load())[name] }

// get returns name's cell, adding an unbound one if it has none.
func (cm *cellMap) get(name string) *cell {
	if c := cm.lookup(name); c != nil {
		return c
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	old := *cm.m.Load()
	if c := old[name]; c != nil {
		return c
	}
	next := make(map[string]*cell, len(old)+1)
	maps.Copy(next, old)
	c := new(cell)
	next[name] = c
	cm.m.Store(&next)
	return c
}

// NewEnv creates a child scope of parent.
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[string]data.Value), parent: parent}
}

// NewSharedEnv creates a module scope: one cell per name, safe for
// concurrent Lookup/Set/Delete without a reader lock. Module globals
// live there, which live UDF definition mutates while queries resolve
// names through them.
func NewSharedEnv() *Env {
	cm := &cellMap{}
	cm.m.Store(&map[string]*cell{})
	return &Env{cells: cm}
}

// Lookup resolves name through the scope chain.
func (e *Env) Lookup(name string) (data.Value, bool) {
	for s := e; s != nil; s = s.parent {
		if s.cells != nil {
			if c := s.cells.lookup(name); c != nil {
				if v, ok := c.load(); ok {
					return v, true
				}
			}
			continue
		}
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return data.Null, false
}

// Set binds name in this scope.
func (e *Env) Set(name string, v data.Value) {
	if e.cells != nil {
		e.cells.get(name).store(v)
		return
	}
	e.vars[name] = v
}

// Delete unbinds name from this scope (the `del` statement).
func (e *Env) Delete(name string) {
	if e.cells != nil {
		if c := e.cells.lookup(name); c != nil {
			c.p.Store(nil)
		}
		return
	}
	delete(e.vars, name)
}

// snapshot returns a scope holding a copy of e's own bindings, under
// e's parent. The module scope is not copied: the snapshot is a child
// of it and sees its cells live.
func (e *Env) snapshot() *Env {
	if e.cells != nil {
		return NewEnv(e)
	}
	return &Env{vars: maps.Clone(e.vars), parent: e.parent}
}

// globalRef is a free name of a compiled body (closure tier or VM),
// resolved once at compile time: the closure scopes in front of the
// defining module scope (nil for a top-level function), the name's cell
// in that module scope, and the builtin the name falls back to.
type globalRef struct {
	name      string
	closure   *Env
	cell      *cell
	builtin   data.Value
	isBuiltin bool
}

// resolveGlobal resolves name as seen from a body defined in env.
// Every function's scope chain ends at a module scope; one that does
// not gets a cell of its own, which stays unbound.
func resolveGlobal(env *Env, name string) *globalRef {
	g := &globalRef{name: name}
	g.builtin, g.isBuiltin = builtins[name]
	s := env
	for s != nil && s.cells == nil {
		s = s.parent
	}
	if s != env {
		g.closure = env
	}
	if s != nil {
		g.cell = s.cells.get(name)
	} else {
		g.cell = new(cell)
	}
	return g
}

// load reads the name: the closure scopes first (a nested function's
// enclosing locals), then the module cell, then the builtin.
func (g *globalRef) load() (data.Value, error) {
	for s := g.closure; s != nil && s.cells == nil; s = s.parent {
		if v, ok := s.vars[g.name]; ok {
			return v, nil
		}
	}
	if v, ok := g.cell.load(); ok {
		return v, nil
	}
	if g.isBuiltin {
		return g.builtin, nil
	}
	return data.Null, nameErrf("name '%s' is not defined", g.name)
}

// Stats aggregates runtime counters used by the experiments.
type Stats struct {
	InterpCalls   atomic.Int64
	CompiledCalls atomic.Int64
	Compilations  atomic.Int64
	CompileNanos  atomic.Int64
}

// Engine-wide runtime metrics (obs.Default): the per-interp Stats above
// feed the experiments; these aggregate across every runtime in the
// process so EXPLAIN ANALYZE and the metrics registry can report
// interpreter-tier vs compiled-tier activity and JIT compile counts.
// The two call counters are bumped per call on no view: a view counts
// its calls in its tally, which fold adds here.
var (
	mInterpCalls   = obs.Default.Counter("pylite.interp_calls")
	mCompiledCalls = obs.Default.Counter("pylite.compiled_calls")
	mCompilations  = obs.Default.Counter("pylite.jit_compiles")
	mCompileNanos  = obs.Default.Counter("pylite.jit_compile_nanos")
)

// Interp is a PyLite runtime: its module scope and the tracing-JIT
// policy (builtins are one process-wide table). With HotThreshold == 0
// it behaves like a pure interpreter (the CPython cost baseline); with
// HotThreshold > 0, functions that get hot are closure-compiled and
// swapped in (the PyPy-style tier).
//
// An Interp runs on one goroutine at a time. vmScratch, the frame stack,
// the argument stack and the tally rely on that to be used without
// locks or atomics: concurrent work takes a view of its own (View,
// Worker), and so does a pulled generator body, which runs as a
// coroutine.
type Interp struct {
	Globals *Env
	ctx     *Ctx

	// HotThreshold is the number of interpreted entries after which a
	// function is JIT-compiled. 0 disables the JIT.
	HotThreshold int

	// intr is the query this view executes for (see View): immutable, and
	// nil on the root runtime, which no query executes on.
	intr *Interrupt

	// tally is what this runtime executed since its last fold; root
	// marks the runtime NewInterp made, which folds after every Call.
	tally tally
	root  bool

	// vmScratch is the argument-staging buffer for bytecode-VM calls. VM
	// callees cannot re-enter the VM (callable arguments bail), so one
	// flat buffer suffices.
	vmScratch []data.Value

	// frames is the closure tier's frame stack: frames[d] is reused by
	// every compiled call at depth d, so a depth's frame never moves while
	// it is live. Generator functions keep heap frames, which outlive
	// their call.
	frames []*cframe
	depth  int

	// args is the LIFO argument stack: a call stages its argument vector
	// on top and pops it after the callee returns, so nested calls stack.
	args []data.Value

	Stats Stats
}

// NewInterp creates a runtime with an empty module scope.
func NewInterp() *Interp {
	it := &Interp{Globals: NewSharedEnv(), root: true}
	it.ctx = &Ctx{it: it}
	return it
}

// Ctx returns the callback context for builtins.
func (it *Interp) Ctx() *Ctx { return it.ctx }

// View returns a view of the runtime executing for one query: it shares
// Globals (the module scope — live UDF definition may rebind it
// mid-query, see NewSharedEnv) and the JIT threshold, polls in at every
// statement, and accumulates its own Stats and tally — so concurrent
// queries and workers write no memory they share on the per-statement
// and per-call path, and the profiler can tell what each view actually
// executed. The view's statement steps and calls reach the query's step
// counter and the process-wide call counters when it is folded: by
// MergeStats when the view's work is done, or when an interrupt stops it.
func (it *Interp) View(in *Interrupt) *Interp {
	w := &Interp{
		Globals:      it.Globals,
		HotThreshold: it.HotThreshold,
		intr:         in,
	}
	w.ctx = &Ctx{it: w}
	return w
}

// Worker returns a per-worker view for parallel fused execution: a View
// executing for the same query as it.
func (it *Interp) Worker() *Interp { return it.View(it.intr) }

// MergeStats folds a worker view's counters into this runtime's Stats,
// and its tally into the shared sinks (fold). Call it once w's work is
// done: w's tally is not safe for concurrent use.
func (it *Interp) MergeStats(w *Interp) {
	it.Stats.InterpCalls.Add(w.Stats.InterpCalls.Load())
	it.Stats.CompiledCalls.Add(w.Stats.CompiledCalls.Load())
	it.Stats.Compilations.Add(w.Stats.Compilations.Load())
	it.Stats.CompileNanos.Add(w.Stats.CompileNanos.Load())
	w.fold()
}

// tally counts what one runtime executed and has not yet folded into the
// memory every view shares: statement steps, interpreted calls and
// compiled calls. The runtime owning it increments plain fields.
type tally struct {
	steps, interpCalls, compiledCalls int64
}

// fold adds the runtime's tally to the shared sinks and clears it: the
// steps to its query's step counter (Interrupt), the calls to
// pylite.interp_calls and pylite.compiled_calls. Each count is folded
// once, by the runtime that made it, so nested merges (worker into query
// view into catalog runtime) count nothing twice.
func (it *Interp) fold() {
	t := &it.tally
	if in := it.intr; in != nil && in.steps != nil && t.steps != 0 {
		in.steps.Add(t.steps)
	}
	if t.interpCalls != 0 {
		mInterpCalls.Add(t.interpCalls)
	}
	if t.compiledCalls != 0 {
		mCompiledCalls.Add(t.compiledCalls)
	}
	*t = tally{}
}

// Exec parses and runs src at module level (defining functions, classes
// and module-level names into Globals).
func (it *Interp) Exec(src string) error {
	mod, err := Parse(src)
	if err != nil {
		return err
	}
	return it.RunModule(mod)
}

// RunModule executes a parsed module's top-level statements. It runs on
// a view of its own: definitions arrive while queries execute (the
// serving plane's CREATE FUNCTION), and a view's call stacks belong to
// one goroutine.
func (it *Interp) RunModule(mod *Module) error {
	w := it.Worker()
	defer it.MergeStats(w)
	fr := &frame{it: w, env: it.Globals}
	fl, err := w.execBlock(fr, mod.Body)
	if err != nil {
		return err
	}
	if fl.kind != flowNone {
		return fmt.Errorf("pylite: 'return' outside function")
	}
	return nil
}

// Global returns a module-level binding.
func (it *Interp) Global(name string) (data.Value, bool) {
	return it.Globals.Lookup(name)
}

// frame is one activation record.
type frame struct {
	it          *Interp
	env         *Env
	yield       func(data.Value) error // a generator body's consumer; nil elsewhere
	globalNames map[string]bool
	fnName      string // enclosing function, for the sampling profiler
}

type flowKind uint8

const (
	flowNone flowKind = iota
	flowReturn
	flowBreak
	flowContinue
)

type flow struct {
	kind flowKind
	val  data.Value
}

var flowZero = flow{}

// Call invokes any callable value with positional args. A call made on
// the root runtime folds its tally when it returns: no merge ever folds
// the root.
func (it *Interp) Call(fn data.Value, args []data.Value) (data.Value, error) {
	if it.root {
		defer it.fold()
	}
	return it.callKw(fn, args, nil)
}

func (it *Interp) callKw(fn data.Value, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	if fn.Kind != data.KindObject {
		return data.Null, typeErrf("'%s' object is not callable", fn.TypeName())
	}
	switch o := fn.P.(type) {
	case *FuncValue:
		return it.callFunc(o, args, kwargs)
	case *BoundMethod:
		return it.callWithSelf(o.Fn, o.Self, args, kwargs)
	case *Builtin:
		return o.Fn(it.ctx, args, kwargs)
	case *Class:
		inst := &Instance{Class: o, Fields: make(map[string]data.Value)}
		self := data.Object(inst)
		if init, ok := o.Methods["__init__"]; ok {
			if _, err := it.callWithSelf(init, self, args, kwargs); err != nil {
				return data.Null, err
			}
		}
		return self, nil
	}
	return data.Null, typeErrf("'%s' object is not callable", fn.TypeName())
}

// callWithSelf calls a method with self prepended to args, staged on
// the argument stack.
func (it *Interp) callWithSelf(fn *FuncValue, self data.Value, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	base := len(it.args)
	defer it.popArgs(base)
	it.args = append(it.args, self)
	it.args = append(it.args, args...)
	return it.callFunc(fn, it.argsFrom(base), kwargs)
}

// argsFrom is the argument vector staged since base. Its capacity ends
// at its length, so a callee's append cannot write into the stack.
func (it *Interp) argsFrom(base int) []data.Value {
	return it.args[base:len(it.args):len(it.args)]
}

// popArgs drops the argument stack back to base, clearing what it pops
// so the stack keeps no values alive.
func (it *Interp) popArgs(base int) {
	clear(it.args[base:])
	it.args = it.args[:base]
}

// callFunc invokes a user-defined function, choosing the compiled tier
// when available and heating the function otherwise.
func (it *Interp) callFunc(fn *FuncValue, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	if c := fn.Compiled(); c != nil {
		it.Stats.CompiledCalls.Add(1)
		it.tally.compiledCalls++
		return c.Call(it, args, kwargs)
	}
	if it.HotThreshold > 0 && !fn.Uncompilable() && fn.Heat() >= it.HotThreshold {
		start := time.Now()
		c, err := Compile(fn)
		if err == nil {
			fn.SetCompiled(c)
			it.Stats.Compilations.Add(1)
			it.Stats.CompileNanos.Add(time.Since(start).Nanoseconds())
			it.Stats.CompiledCalls.Add(1)
			it.tally.compiledCalls++
			mCompilations.Inc()
			mCompileNanos.Add(time.Since(start).Nanoseconds())
			return c.Call(it, args, kwargs)
		}
		// Uncompilable constructs fall back to interpretation forever.
		fn.SetCompiled(nil)
	}
	it.Stats.InterpCalls.Add(1)
	it.tally.interpCalls++
	env, err := bindParams(fn, args, kwargs)
	if err != nil {
		return data.Null, err
	}
	if fn.Expr != nil { // lambda
		fr := &frame{it: it, env: env}
		return it.eval(fr, fn.Expr)
	}
	if fn.IsGen {
		return data.Object(NewGenerator(it, func(run *Interp, yield func(data.Value) error) error {
			fr := &frame{it: run, env: env, yield: yield, fnName: fn.Name}
			_, err := run.execBlock(fr, fn.Body)
			return err
		})), nil
	}
	fr := &frame{it: it, env: env, fnName: fn.Name}
	fl, err := it.execBlock(fr, fn.Body)
	if err != nil {
		return data.Null, err
	}
	if fl.kind == flowReturn {
		return fl.val, nil
	}
	return data.Null, nil
}

// bindParams builds the callee environment from args/kwargs/defaults.
func bindParams(fn *FuncValue, args []data.Value, kwargs map[string]data.Value) (*Env, error) {
	env := NewEnv(fn.Env)
	np := len(fn.Params)
	if len(args) > np && fn.Vararg == "" {
		return nil, typeErrf("%s() takes %d positional arguments but %d were given", fn.Name, np, len(args))
	}
	for i, p := range fn.Params {
		switch {
		case i < len(args):
			env.Set(p.Name, args[i])
		case kwargs != nil:
			if v, ok := kwargs[p.Name]; ok {
				env.Set(p.Name, v)
				continue
			}
			fallthrough
		default:
			if p.Default == nil {
				return nil, typeErrf("%s() missing required argument: '%s'", fn.Name, p.Name)
			}
			// Defaults are evaluated in the defining env at call time
			// (a deliberate simplification; workload UDF defaults are
			// constants, so the difference is unobservable).
			d, err := evalConstDefault(fn, p.Default)
			if err != nil {
				return nil, err
			}
			env.Set(p.Name, d)
		}
	}
	if fn.Vararg != "" {
		var rest []data.Value
		if len(args) > np {
			rest = append(rest, args[np:]...)
		}
		env.Set(fn.Vararg, data.NewList(rest))
	}
	return env, nil
}

// evalConstDefault evaluates a parameter default in the defining scope.
func evalConstDefault(fn *FuncValue, e Expr) (data.Value, error) {
	if c, ok := e.(*Const); ok {
		return c.Value, nil
	}
	// Non-constant default: evaluate with a throwaway interpreter frame
	// against the closure environment.
	it := NewInterp()
	fr := &frame{it: it, env: NewEnv(fn.Env)}
	return it.eval(fr, e)
}

// execBlock runs a statement list, propagating control flow.
func (it *Interp) execBlock(fr *frame, body []Stmt) (flow, error) {
	for _, st := range body {
		fl, err := it.execStmt(fr, st)
		if err != nil {
			return flowZero, err
		}
		if fl.kind != flowNone {
			return fl, nil
		}
	}
	return flowZero, nil
}

func (it *Interp) execStmt(fr *frame, st Stmt) (flow, error) {
	if err := it.checkIntr(); err != nil {
		return flowZero, err
	}
	// Profiler hook: one atomic pointer load when profiling is off (the
	// same zero-overhead discipline as checkIntr's intr load).
	if p := profActive.Load(); p != nil {
		p.maybeSample(fr.fnName, st.nodeLine())
	}
	switch s := st.(type) {
	case *ExprStmt:
		_, err := it.eval(fr, s.Value)
		return flowZero, err
	case *Assign:
		v, err := it.eval(fr, s.Value)
		if err != nil {
			return flowZero, err
		}
		for _, t := range s.Targets {
			if err := it.assign(fr, t, v); err != nil {
				return flowZero, err
			}
		}
		return flowZero, nil
	case *AugAssign:
		cur, err := it.eval(fr, s.Target)
		if err != nil {
			return flowZero, err
		}
		rhs, err := it.eval(fr, s.Value)
		if err != nil {
			return flowZero, err
		}
		nv, err := binOp(s.Op, cur, rhs)
		if err != nil {
			return flowZero, err
		}
		return flowZero, it.assign(fr, s.Target, nv)
	case *Return:
		v := data.Null
		if s.Value != nil {
			var err error
			v, err = it.eval(fr, s.Value)
			if err != nil {
				return flowZero, err
			}
		}
		return flow{kind: flowReturn, val: v}, nil
	case *If:
		c, err := it.eval(fr, s.Cond)
		if err != nil {
			return flowZero, err
		}
		if c.Truthy() {
			return it.execBlock(fr, s.Body)
		}
		return it.execBlock(fr, s.Else)
	case *While:
		for {
			c, err := it.eval(fr, s.Cond)
			if err != nil {
				return flowZero, err
			}
			if !c.Truthy() {
				return flowZero, nil
			}
			fl, err := it.execBlock(fr, s.Body)
			if err != nil {
				return flowZero, err
			}
			switch fl.kind {
			case flowBreak:
				return flowZero, nil
			case flowReturn:
				return fl, nil
			}
		}
	case *For:
		iterable, err := it.eval(fr, s.Iter)
		if err != nil {
			return flowZero, err
		}
		var out flow
		err = it.Iterate(iterable, func(v data.Value) error {
			if err := it.assign(fr, s.Target, v); err != nil {
				return err
			}
			fl, err := it.execBlock(fr, s.Body)
			if err != nil {
				return err
			}
			switch fl.kind {
			case flowBreak:
				return errLoopExit
			case flowReturn:
				out = fl
				return errLoopExit
			}
			return nil
		})
		if err == errLoopExit {
			err = nil
		}
		return out, err
	case *FuncDef:
		fn := &FuncValue{Name: s.Name, Params: s.Params, Vararg: s.Vararg,
			Body: s.Body, IsGen: s.IsGen, Env: fr.env}
		fr.env.Set(s.Name, data.Object(fn))
		return flowZero, nil
	case *ClassDef:
		cls := &Class{Name: s.Name, Methods: make(map[string]*FuncValue)}
		for _, m := range s.Body {
			if fd, ok := m.(*FuncDef); ok {
				cls.Methods[fd.Name] = &FuncValue{Name: s.Name + "." + fd.Name,
					Params: fd.Params, Vararg: fd.Vararg, Body: fd.Body,
					IsGen: fd.IsGen, Env: fr.env}
			}
		}
		fr.env.Set(s.Name, data.Object(cls))
		return flowZero, nil
	case *Pass:
		return flowZero, nil
	case *Break:
		return flow{kind: flowBreak}, nil
	case *Continue:
		return flow{kind: flowContinue}, nil
	case *Import:
		for i, name := range s.Names {
			v, err := importBinding(s, i)
			if err != nil {
				return flowZero, err
			}
			it.bind(fr, name, v)
		}
		return flowZero, nil
	case *Del:
		switch t := s.Target.(type) {
		case *Name:
			fr.env.Delete(t.ID)
			return flowZero, nil
		case *Index:
			obj, err := it.eval(fr, t.Obj)
			if err != nil {
				return flowZero, err
			}
			key, err := it.eval(fr, t.Key)
			if err != nil {
				return flowZero, err
			}
			return flowZero, delIndex(obj, key)
		}
		return flowZero, typeErrf("cannot delete this target")
	case *Global:
		if fr.globalNames == nil {
			fr.globalNames = make(map[string]bool)
		}
		for _, n := range s.Names {
			fr.globalNames[n] = true
		}
		return flowZero, nil
	case *Raise:
		if s.Value == nil {
			return flowZero, raisef("RuntimeError", "No active exception to re-raise")
		}
		v, err := it.eval(fr, s.Value)
		if err != nil {
			return flowZero, err
		}
		return flowZero, toError(v)
	case *Try:
		fl, err := it.execBlock(fr, s.Body)
		if err != nil {
			if pe, ok := IsPyError(err); ok && matchExcept(pe, s.ExcType) {
				if s.ExcName != "" {
					fr.env.Set(s.ExcName, data.Object(&ExcValue{Type: pe.Type, Msg: pe.Msg}))
				}
				fl, err = it.execBlock(fr, s.Except)
			}
		}
		if len(s.Finally) > 0 {
			ffl, ferr := it.execBlock(fr, s.Finally)
			if ferr != nil {
				return flowZero, ferr
			}
			if ffl.kind != flowNone {
				return ffl, nil
			}
		}
		return fl, err
	case *Assert:
		c, err := it.eval(fr, s.Cond)
		if err != nil {
			return flowZero, err
		}
		if !c.Truthy() {
			msg := ""
			if s.Msg != nil {
				m, err := it.eval(fr, s.Msg)
				if err != nil {
					return flowZero, err
				}
				msg = m.String()
			}
			return flowZero, raisef("AssertionError", "%s", msg)
		}
		return flowZero, nil
	}
	return flowZero, fmt.Errorf("pylite: unsupported statement %T", st)
}

// toError converts a raised value to a PyError.
func toError(v data.Value) error {
	if v.Kind == data.KindObject {
		if e, ok := v.P.(*ExcValue); ok {
			return &PyError{Type: e.Type, Msg: e.Msg}
		}
		if b, ok := v.P.(*Builtin); ok {
			// `raise ValueError` without calling it.
			return &PyError{Type: b.Name}
		}
	}
	return &PyError{Type: "Exception", Msg: v.String()}
}

// matchExcept reports whether exception pe is caught by an except clause
// naming typ ("" or "Exception" or "BaseException" catch everything).
func matchExcept(pe *PyError, typ string) bool {
	return typ == "" || typ == "Exception" || typ == "BaseException" || typ == pe.Type
}

// bind sets name in the frame's scope, or in Globals when the frame
// declared it global.
func (it *Interp) bind(fr *frame, name string, v data.Value) {
	if fr.globalNames != nil && fr.globalNames[name] {
		it.Globals.Set(name, v)
	} else {
		fr.env.Set(name, v)
	}
}

// assign binds a value to an assignment target.
func (it *Interp) assign(fr *frame, target Expr, v data.Value) error {
	switch t := target.(type) {
	case *Name:
		if fr.globalNames != nil && fr.globalNames[t.ID] {
			it.Globals.Set(t.ID, v)
		} else {
			fr.env.Set(t.ID, v)
		}
		return nil
	case *Attr:
		obj, err := it.eval(fr, t.Obj)
		if err != nil {
			return err
		}
		return setAttr(obj, t.Name, v)
	case *Index:
		obj, err := it.eval(fr, t.Obj)
		if err != nil {
			return err
		}
		key, err := it.eval(fr, t.Key)
		if err != nil {
			return err
		}
		return setIndex(obj, key, v)
	case *TupleLit:
		var items []data.Value
		if err := it.Iterate(v, func(x data.Value) error {
			items = append(items, x)
			return nil
		}); err != nil {
			return err
		}
		if len(items) != len(t.Items) {
			return valueErrf("cannot unpack %d values into %d targets", len(items), len(t.Items))
		}
		for i, sub := range t.Items {
			if err := it.assign(fr, sub, items[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return typeErrf("cannot assign to this expression")
}

// eval evaluates an expression.
func (it *Interp) eval(fr *frame, e Expr) (data.Value, error) {
	switch x := e.(type) {
	case *Const:
		return x.Value, nil
	case *Name:
		if v, ok := fr.env.Lookup(x.ID); ok {
			return v, nil
		}
		if v, ok := it.Globals.Lookup(x.ID); ok {
			return v, nil
		}
		if v, ok := builtins[x.ID]; ok {
			return v, nil
		}
		return data.Null, nameErrf("name '%s' is not defined", x.ID)
	case *BinOp:
		l, err := it.eval(fr, x.Left)
		if err != nil {
			return data.Null, err
		}
		r, err := it.eval(fr, x.Right)
		if err != nil {
			return data.Null, err
		}
		return binOp(x.Op, l, r)
	case *UnaryOp:
		v, err := it.eval(fr, x.Operand)
		if err != nil {
			return data.Null, err
		}
		return unaryOp(x.Op, v)
	case *BoolOp:
		l, err := it.eval(fr, x.Left)
		if err != nil {
			return data.Null, err
		}
		if x.Op == "and" {
			if !l.Truthy() {
				return l, nil
			}
		} else if l.Truthy() {
			return l, nil
		}
		return it.eval(fr, x.Right)
	case *Compare:
		left, err := it.eval(fr, x.Left)
		if err != nil {
			return data.Null, err
		}
		for i, op := range x.Ops {
			right, err := it.eval(fr, x.Comps[i])
			if err != nil {
				return data.Null, err
			}
			ok, err := compareOp(op, left, right)
			if err != nil {
				return data.Null, err
			}
			if !ok {
				return data.Bool(false), nil
			}
			left = right
		}
		return data.Bool(true), nil
	case *IfExp:
		c, err := it.eval(fr, x.Cond)
		if err != nil {
			return data.Null, err
		}
		if c.Truthy() {
			return it.eval(fr, x.Then)
		}
		return it.eval(fr, x.Else)
	case *Call:
		fn, err := it.eval(fr, x.Fn)
		if err != nil {
			return data.Null, err
		}
		args := make([]data.Value, 0, len(x.Args))
		for _, a := range x.Args {
			v, err := it.eval(fr, a)
			if err != nil {
				return data.Null, err
			}
			args = append(args, v)
		}
		if x.StarArg != nil {
			star, err := it.eval(fr, x.StarArg)
			if err != nil {
				return data.Null, err
			}
			if err := it.Iterate(star, func(v data.Value) error {
				args = append(args, v)
				return nil
			}); err != nil {
				return data.Null, err
			}
		}
		var kwargs map[string]data.Value
		if len(x.KwNames) > 0 {
			kwargs = make(map[string]data.Value, len(x.KwNames))
			for i, name := range x.KwNames {
				v, err := it.eval(fr, x.KwVals[i])
				if err != nil {
					return data.Null, err
				}
				kwargs[name] = v
			}
		}
		return it.callKw(fn, args, kwargs)
	case *Attr:
		obj, err := it.eval(fr, x.Obj)
		if err != nil {
			return data.Null, err
		}
		return getAttr(it.ctx, obj, x.Name)
	case *Index:
		obj, err := it.eval(fr, x.Obj)
		if err != nil {
			return data.Null, err
		}
		key, err := it.eval(fr, x.Key)
		if err != nil {
			return data.Null, err
		}
		return getIndex(obj, key)
	case *SliceExpr:
		obj, err := it.eval(fr, x.Obj)
		if err != nil {
			return data.Null, err
		}
		lo, hi, step := data.Null, data.Null, data.Null
		if x.Lo != nil {
			if lo, err = it.eval(fr, x.Lo); err != nil {
				return data.Null, err
			}
		}
		if x.Hi != nil {
			if hi, err = it.eval(fr, x.Hi); err != nil {
				return data.Null, err
			}
		}
		if x.Step != nil {
			if step, err = it.eval(fr, x.Step); err != nil {
				return data.Null, err
			}
		}
		return getSlice(obj, lo, hi, step)
	case *ListLit:
		items := make([]data.Value, 0, len(x.Items))
		for _, el := range x.Items {
			v, err := it.eval(fr, el)
			if err != nil {
				return data.Null, err
			}
			items = append(items, v)
		}
		return data.NewList(items), nil
	case *TupleLit:
		items := make([]data.Value, 0, len(x.Items))
		for _, el := range x.Items {
			v, err := it.eval(fr, el)
			if err != nil {
				return data.Null, err
			}
			items = append(items, v)
		}
		return data.NewList(items), nil
	case *SetLit:
		s := NewSet()
		for _, el := range x.Items {
			v, err := it.eval(fr, el)
			if err != nil {
				return data.Null, err
			}
			s.Add(v)
		}
		return data.Object(s), nil
	case *DictLit:
		d := data.NewDict()
		dd := d.Dict()
		for i, ke := range x.Keys {
			k, err := it.eval(fr, ke)
			if err != nil {
				return data.Null, err
			}
			v, err := it.eval(fr, x.Vals[i])
			if err != nil {
				return data.Null, err
			}
			dd.Set(dictKey(k), v)
		}
		return d, nil
	case *Lambda:
		return data.Object(&FuncValue{Name: "<lambda>", Params: x.Params,
			Expr: x.Body, Env: fr.env}), nil
	case *Comp:
		return it.evalComp(fr, x)
	case *Yield:
		if fr.yield == nil {
			return data.Null, raisef("SyntaxError", "'yield' outside function")
		}
		v := data.Null
		if x.Value != nil {
			var err error
			v, err = it.eval(fr, x.Value)
			if err != nil {
				return data.Null, err
			}
		}
		return data.Null, fr.yield(v)
	}
	return data.Null, fmt.Errorf("pylite: unsupported expression %T", e)
}

// evalComp evaluates list/set/generator comprehensions.
func (it *Interp) evalComp(fr *frame, c *Comp) (data.Value, error) {
	if c.Kind == 'g' {
		// Generator expression: a lazy producer over a snapshot of the
		// enclosing locals, as on the closure tier.
		env := fr.env.snapshot()
		return data.Object(NewGenerator(it, func(run *Interp, yield func(data.Value) error) error {
			return run.compLoop(&frame{it: run, env: env}, c, 0, yield)
		})), nil
	}
	// List/set comprehensions run in the enclosing frame (Python 2-style
	// scoping, kept identical between the interpreter and compiled tier).
	if c.Kind == 's' {
		s := NewSet()
		err := it.compLoop(fr, c, 0, func(v data.Value) error {
			s.Add(v)
			return nil
		})
		return data.Object(s), err
	}
	var items []data.Value
	err := it.compLoop(fr, c, 0, func(v data.Value) error {
		items = append(items, v)
		return nil
	})
	return data.NewList(items), err
}

// compLoop recursively executes comprehension for-clauses.
func (it *Interp) compLoop(fr *frame, c *Comp, depth int, emit func(data.Value) error) error {
	if depth == len(c.Fors) {
		v, err := it.eval(fr, c.Elt)
		if err != nil {
			return err
		}
		return emit(v)
	}
	cf := c.Fors[depth]
	iterable, err := it.eval(fr, cf.Iter)
	if err != nil {
		return err
	}
	return it.Iterate(iterable, func(v data.Value) error {
		if err := it.assign(fr, cf.Target, v); err != nil {
			return err
		}
		for _, cond := range cf.Ifs {
			cv, err := it.eval(fr, cond)
			if err != nil || !cv.Truthy() {
				return err
			}
		}
		return it.compLoop(fr, c, depth+1, emit)
	})
}
