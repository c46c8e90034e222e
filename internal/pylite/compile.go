package pylite

import (
	"fmt"

	"qfusor/internal/data"
)

// CompiledFunc is the closure-compiled form of a PyLite function: every
// AST node has been lowered to a Go closure with slot-resolved locals and
// unboxed fast paths for hot scalar operations. This is the reproduction
// of the tracing JIT tier (see DESIGN.md §2): per-node dispatch, map
// lookups and re-resolution — the interpreter's costs — are gone, and
// fused pipelines get a single long "trace" of closures.
type CompiledFunc struct {
	src        *FuncValue
	names      []string // slot index -> name (for closure snapshots)
	slotOf     map[string]int
	paramSlots []int
	varargSlot int // -1 if none
	body       cStmt
	expr       cExpr // lambda body
	isGen      bool
	entryLine  int // first body line, for profiler entry samples
}

type cframe struct {
	it      *Interp
	slots   []data.Value
	names   []string
	closure *Env                   // defining environment for free variables
	yield   func(data.Value) error // a generator body's consumer; nil elsewhere
	argBase int                    // argument-stack height at entry (stack frames only)
}

type cStmt func(f *cframe) (flow, error)
type cExpr func(f *cframe) (data.Value, error)

// Compile lowers fn into a CompiledFunc. It never mutates fn.
func Compile(fn *FuncValue) (*CompiledFunc, error) {
	c := &compiler{
		slotOf:  make(map[string]int),
		globals: make(map[string]bool),
		fnName:  fn.Name,
		env:     fn.Env,
	}
	// Parameters get the first slots.
	cf := &CompiledFunc{src: fn, varargSlot: -1, isGen: fn.IsGen}
	for _, p := range fn.Params {
		cf.paramSlots = append(cf.paramSlots, c.slot(p.Name))
	}
	if fn.Vararg != "" {
		cf.varargSlot = c.slot(fn.Vararg)
	}
	if fn.Expr != nil {
		e, err := c.compileExpr(fn.Expr)
		if err != nil {
			return nil, err
		}
		cf.expr = e
		cf.entryLine = fn.Expr.nodeLine()
	} else {
		collectGlobals(fn.Body, c.globals)
		collectLocals(fn.Body, c)
		body, err := c.compileBlock(fn.Body)
		if err != nil {
			return nil, err
		}
		cf.body = body
		if len(fn.Body) > 0 {
			cf.entryLine = fn.Body[0].nodeLine()
		}
	}
	cf.slotOf = c.slotOf
	cf.names = c.names
	return cf, nil
}

// Call invokes the compiled function. Its frame comes from the runtime's
// frame stack and is released on every exit path, a recovered panic
// included; only a generator function's frame, which outlives the call,
// is allocated.
func (cf *CompiledFunc) Call(it *Interp, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	// Compiled bodies only poll at loop back-edges; the entry check keeps
	// straight-line compiled UDFs cancellable once per row.
	if err := it.checkIntr(); err != nil {
		return data.Null, err
	}
	// Profiler hook: compiled statements carry no per-statement events,
	// so sample at entry (and at back-edges below) — the points where
	// the compiled tier already pays for a cancellation poll.
	if p := profActive.Load(); p != nil {
		p.maybeSample(cf.src.Name, cf.entryLine)
	}
	if cf.isGen {
		return cf.callGen(it, args, kwargs)
	}
	f := it.pushFrame(cf)
	defer it.popFrame(f)
	if err := cf.bind(f, args, kwargs); err != nil {
		return data.Null, err
	}
	if cf.expr != nil {
		return cf.expr(f)
	}
	fl, err := cf.body(f)
	if err != nil {
		return data.Null, err
	}
	if fl.kind == flowReturn {
		return fl.val, nil
	}
	return data.Null, nil
}

// callGen binds a generator function's arguments to a heap frame, which
// its body runs on when first consumed.
func (cf *CompiledFunc) callGen(it *Interp, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	f := &cframe{slots: make([]data.Value, len(cf.names)), names: cf.names, closure: cf.src.Env}
	if err := cf.bind(f, args, kwargs); err != nil {
		return data.Null, err
	}
	return data.Object(NewGenerator(it, func(run *Interp, yield func(data.Value) error) error {
		f.it, f.yield = run, yield
		_, err := cf.body(f)
		return err
	})), nil
}

// bind stores the call's arguments, defaults and varargs in f's slots.
func (cf *CompiledFunc) bind(f *cframe, args []data.Value, kwargs map[string]data.Value) error {
	np := len(cf.paramSlots)
	if len(args) > np && cf.varargSlot < 0 {
		return typeErrf("%s() takes %d positional arguments but %d were given", cf.src.Name, np, len(args))
	}
	for i, slot := range cf.paramSlots {
		switch {
		case i < len(args):
			f.slots[slot] = args[i]
		default:
			p := cf.src.Params[i]
			if kwargs != nil {
				if v, ok := kwargs[p.Name]; ok {
					f.slots[slot] = v
					continue
				}
			}
			if p.Default == nil {
				return typeErrf("%s() missing required argument: '%s'", cf.src.Name, p.Name)
			}
			d, err := evalConstDefault(cf.src, p.Default)
			if err != nil {
				return err
			}
			f.slots[slot] = d
		}
	}
	if cf.varargSlot >= 0 {
		var rest []data.Value
		if len(args) > np {
			rest = append(rest, args[np:]...)
		}
		f.slots[cf.varargSlot] = data.NewList(rest)
	}
	return nil
}

// pushFrame takes the frame of the next call depth from the runtime's
// frame stack and readies it for cf.
func (it *Interp) pushFrame(cf *CompiledFunc) *cframe {
	if it.depth == len(it.frames) {
		it.frames = append(it.frames, &cframe{it: it})
	}
	f := it.frames[it.depth]
	it.depth++
	if n := len(cf.names); cap(f.slots) < n {
		f.slots = make([]data.Value, n)
	} else {
		f.slots = f.slots[:n]
	}
	f.names, f.closure, f.argBase = cf.names, cf.src.Env, len(it.args)
	return f
}

// popFrame releases the innermost frame: its slots are cleared, so the
// next call at this depth starts unbound and the frame keeps no values
// alive, and the argument stack drops back to its height at entry.
func (it *Interp) popFrame(f *cframe) {
	clear(f.slots)
	f.closure = nil
	it.popArgs(f.argBase)
	it.depth--
}

// compiler holds per-function compilation state.
type compiler struct {
	names   []string
	slotOf  map[string]int
	globals map[string]bool
	fnName  string // compiled function, for profiler back-edge samples
	env     *Env   // defining scope: free names resolve through it (resolveGlobal)
}

func (c *compiler) slot(name string) int {
	if i, ok := c.slotOf[name]; ok {
		return i
	}
	i := len(c.names)
	c.slotOf[name] = i
	c.names = append(c.names, name)
	return i
}

// collectGlobals records names declared `global` anywhere in body.
func collectGlobals(body []Stmt, out map[string]bool) {
	for _, st := range body {
		switch s := st.(type) {
		case *Global:
			for _, n := range s.Names {
				out[n] = true
			}
		case *If:
			collectGlobals(s.Body, out)
			collectGlobals(s.Else, out)
		case *While:
			collectGlobals(s.Body, out)
		case *For:
			collectGlobals(s.Body, out)
		case *Try:
			collectGlobals(s.Body, out)
			collectGlobals(s.Except, out)
			collectGlobals(s.Finally, out)
		}
	}
}

// collectLocals assigns a slot to every name bound in body.
func collectLocals(body []Stmt, c *compiler) {
	bind := func(e Expr) {
		bindTarget(e, c)
	}
	for _, st := range body {
		switch s := st.(type) {
		case *Assign:
			for _, t := range s.Targets {
				bind(t)
			}
			collectExprLocals(s.Value, c)
		case *AugAssign:
			bind(s.Target)
		case *For:
			bind(s.Target)
			collectExprLocals(s.Iter, c)
			collectLocals(s.Body, c)
		case *While:
			collectLocals(s.Body, c)
		case *If:
			collectLocals(s.Body, c)
			collectLocals(s.Else, c)
		case *Try:
			collectLocals(s.Body, c)
			if s.ExcName != "" && !c.globals[s.ExcName] {
				c.slot(s.ExcName)
			}
			collectLocals(s.Except, c)
			collectLocals(s.Finally, c)
		case *FuncDef:
			if !c.globals[s.Name] {
				c.slot(s.Name)
			}
		case *ClassDef:
			if !c.globals[s.Name] {
				c.slot(s.Name)
			}
		case *Import:
			for _, n := range s.Names {
				if !c.globals[n] {
					c.slot(n)
				}
			}
		case *ExprStmt:
			collectExprLocals(s.Value, c)
		case *Return:
			if s.Value != nil {
				collectExprLocals(s.Value, c)
			}
		}
	}
}

func bindTarget(e Expr, c *compiler) {
	switch t := e.(type) {
	case *Name:
		if !c.globals[t.ID] {
			c.slot(t.ID)
		}
	case *TupleLit:
		for _, it := range t.Items {
			bindTarget(it, c)
		}
	}
}

// collectExprLocals finds comprehension targets nested in expressions.
func collectExprLocals(e Expr, c *compiler) {
	switch x := e.(type) {
	case *Comp:
		for _, cf := range x.Fors {
			bindTarget(cf.Target, c)
			collectExprLocals(cf.Iter, c)
		}
		collectExprLocals(x.Elt, c)
	case *BinOp:
		collectExprLocals(x.Left, c)
		collectExprLocals(x.Right, c)
	case *BoolOp:
		collectExprLocals(x.Left, c)
		collectExprLocals(x.Right, c)
	case *UnaryOp:
		collectExprLocals(x.Operand, c)
	case *Call:
		collectExprLocals(x.Fn, c)
		for _, a := range x.Args {
			collectExprLocals(a, c)
		}
		for _, a := range x.KwVals {
			collectExprLocals(a, c)
		}
		if x.StarArg != nil {
			collectExprLocals(x.StarArg, c)
		}
	case *IfExp:
		collectExprLocals(x.Cond, c)
		collectExprLocals(x.Then, c)
		collectExprLocals(x.Else, c)
	case *Index:
		collectExprLocals(x.Obj, c)
		collectExprLocals(x.Key, c)
	case *Attr:
		collectExprLocals(x.Obj, c)
	case *ListLit:
		for _, it := range x.Items {
			collectExprLocals(it, c)
		}
	case *TupleLit:
		for _, it := range x.Items {
			collectExprLocals(it, c)
		}
	case *DictLit:
		for _, k := range x.Keys {
			collectExprLocals(k, c)
		}
		for _, v := range x.Vals {
			collectExprLocals(v, c)
		}
	}
}

func (c *compiler) compileBlock(body []Stmt) (cStmt, error) {
	stmts := make([]cStmt, len(body))
	for i, st := range body {
		cs, err := c.compileStmt(st)
		if err != nil {
			return nil, err
		}
		stmts[i] = cs
	}
	if len(stmts) == 1 {
		return stmts[0], nil
	}
	return func(f *cframe) (flow, error) {
		for _, st := range stmts {
			fl, err := st(f)
			if err != nil {
				return flowZero, err
			}
			if fl.kind != flowNone {
				return fl, nil
			}
		}
		return flowZero, nil
	}, nil
}

func (c *compiler) compileStmt(st Stmt) (cStmt, error) {
	switch s := st.(type) {
	case *ExprStmt:
		e, err := c.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (flow, error) {
			_, err := e(f)
			return flowZero, err
		}, nil
	case *Assign:
		val, err := c.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		stores := make([]func(f *cframe, v data.Value) error, len(s.Targets))
		for i, t := range s.Targets {
			store, err := c.compileStore(t)
			if err != nil {
				return nil, err
			}
			stores[i] = store
		}
		return func(f *cframe) (flow, error) {
			v, err := val(f)
			if err != nil {
				return flowZero, err
			}
			for _, store := range stores {
				if err := store(f, v); err != nil {
					return flowZero, err
				}
			}
			return flowZero, nil
		}, nil
	case *AugAssign:
		load, err := c.compileExpr(s.Target)
		if err != nil {
			return nil, err
		}
		rhs, err := c.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		store, err := c.compileStore(s.Target)
		if err != nil {
			return nil, err
		}
		op := s.Op
		return func(f *cframe) (flow, error) {
			cur, err := load(f)
			if err != nil {
				return flowZero, err
			}
			r, err := rhs(f)
			if err != nil {
				return flowZero, err
			}
			// Unboxed int fast path for the hottest aggregate pattern.
			if op == "+" && cur.Kind == data.KindInt && r.Kind == data.KindInt {
				return flowZero, store(f, data.Int(cur.I+r.I))
			}
			nv, err := binOp(op, cur, r)
			if err != nil {
				return flowZero, err
			}
			return flowZero, store(f, nv)
		}, nil
	case *Return:
		if s.Value == nil {
			return func(f *cframe) (flow, error) {
				return flow{kind: flowReturn, val: data.Null}, nil
			}, nil
		}
		e, err := c.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (flow, error) {
			v, err := e(f)
			if err != nil {
				return flowZero, err
			}
			return flow{kind: flowReturn, val: v}, nil
		}, nil
	case *If:
		cond, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.compileBlock(s.Body)
		if err != nil {
			return nil, err
		}
		var els cStmt
		if len(s.Else) > 0 {
			els, err = c.compileBlock(s.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(f *cframe) (flow, error) {
			cv, err := cond(f)
			if err != nil {
				return flowZero, err
			}
			if cv.Truthy() {
				return body(f)
			}
			if els != nil {
				return els(f)
			}
			return flowZero, nil
		}, nil
	case *While:
		cond, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.compileBlock(s.Body)
		if err != nil {
			return nil, err
		}
		fname, line := c.fnName, s.nodeLine()
		return func(f *cframe) (flow, error) {
			for {
				if err := f.it.checkIntr(); err != nil {
					return flowZero, err
				}
				if p := profActive.Load(); p != nil {
					p.maybeSample(fname, line)
				}
				cv, err := cond(f)
				if err != nil {
					return flowZero, err
				}
				if !cv.Truthy() {
					return flowZero, nil
				}
				fl, err := body(f)
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
		}, nil
	case *For:
		iter, err := c.compileExpr(s.Iter)
		if err != nil {
			return nil, err
		}
		store, err := c.compileStore(s.Target)
		if err != nil {
			return nil, err
		}
		body, err := c.compileBlock(s.Body)
		if err != nil {
			return nil, err
		}
		fname, line := c.fnName, s.nodeLine()
		return func(f *cframe) (flow, error) {
			iterable, err := iter(f)
			if err != nil {
				return flowZero, err
			}
			// Fast path: direct slice loop without iterator allocation —
			// the compiled "hot loop" the tracing JIT produces.
			if iterable.Kind == data.KindList {
				for _, v := range iterable.List().Items {
					if err := f.it.checkIntr(); err != nil {
						return flowZero, err
					}
					if p := profActive.Load(); p != nil {
						p.maybeSample(fname, line)
					}
					if err := store(f, v); err != nil {
						return flowZero, err
					}
					fl, err := body(f)
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
				return flowZero, nil
			}
			if iterable.Kind == data.KindObject {
				if r, ok := iterable.P.(*RangeObj); ok {
					for i := r.Start; (r.Step > 0 && i < r.Stop) || (r.Step < 0 && i > r.Stop); i += r.Step {
						if err := f.it.checkIntr(); err != nil {
							return flowZero, err
						}
						if p := profActive.Load(); p != nil {
							p.maybeSample(fname, line)
						}
						if err := store(f, data.Int(i)); err != nil {
							return flowZero, err
						}
						fl, err := body(f)
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
					return flowZero, nil
				}
			}
			var out flow
			err = f.it.Iterate(iterable, func(v data.Value) error {
				if err := f.it.checkIntr(); err != nil {
					return err
				}
				if p := profActive.Load(); p != nil {
					p.maybeSample(fname, line)
				}
				if err := store(f, v); err != nil {
					return err
				}
				fl, err := body(f)
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
		}, nil
	case *Pass:
		return func(f *cframe) (flow, error) { return flowZero, nil }, nil
	case *Break:
		return func(f *cframe) (flow, error) { return flow{kind: flowBreak}, nil }, nil
	case *Continue:
		return func(f *cframe) (flow, error) { return flow{kind: flowContinue}, nil }, nil
	case *Global:
		return func(f *cframe) (flow, error) { return flowZero, nil }, nil
	case *Import:
		imp := s
		slots := make([]int, len(imp.Names))
		for i, n := range imp.Names {
			if c.globals[n] {
				slots[i] = -1
			} else {
				slots[i] = c.slot(n)
			}
		}
		return func(f *cframe) (flow, error) {
			for i, n := range imp.Names {
				v, err := importBinding(imp, i)
				if err != nil {
					return flowZero, err
				}
				if slots[i] >= 0 {
					f.slots[slots[i]] = v
				} else {
					f.it.Globals.Set(n, v)
				}
			}
			return flowZero, nil
		}, nil
	case *FuncDef:
		def := s
		var slot = -1
		if !c.globals[s.Name] {
			slot = c.slot(s.Name)
		}
		return func(f *cframe) (flow, error) {
			fn := &FuncValue{Name: def.Name, Params: def.Params, Vararg: def.Vararg,
				Body: def.Body, IsGen: def.IsGen, Env: f.closureEnv()}
			v := data.Object(fn)
			if slot >= 0 {
				f.slots[slot] = v
			} else {
				f.it.Globals.Set(def.Name, v)
			}
			return flowZero, nil
		}, nil
	case *ClassDef:
		def := s
		var slot = -1
		if !c.globals[s.Name] {
			slot = c.slot(s.Name)
		}
		return func(f *cframe) (flow, error) {
			cls := &Class{Name: def.Name, Methods: make(map[string]*FuncValue)}
			env := f.closureEnv()
			for _, m := range def.Body {
				if fd, ok := m.(*FuncDef); ok {
					cls.Methods[fd.Name] = &FuncValue{Name: def.Name + "." + fd.Name,
						Params: fd.Params, Vararg: fd.Vararg, Body: fd.Body,
						IsGen: fd.IsGen, Env: env}
				}
			}
			v := data.Object(cls)
			if slot >= 0 {
				f.slots[slot] = v
			} else {
				f.it.Globals.Set(def.Name, v)
			}
			return flowZero, nil
		}, nil
	case *Del:
		switch t := s.Target.(type) {
		case *Name:
			if c.globals[t.ID] {
				id := t.ID
				return func(f *cframe) (flow, error) {
					f.it.Globals.Delete(id)
					return flowZero, nil
				}, nil
			}
			slot := c.slot(t.ID)
			return func(f *cframe) (flow, error) {
				f.slots[slot] = data.Null
				return flowZero, nil
			}, nil
		case *Index:
			obj, err := c.compileExpr(t.Obj)
			if err != nil {
				return nil, err
			}
			key, err := c.compileExpr(t.Key)
			if err != nil {
				return nil, err
			}
			return func(f *cframe) (flow, error) {
				ov, err := obj(f)
				if err != nil {
					return flowZero, err
				}
				kv, err := key(f)
				if err != nil {
					return flowZero, err
				}
				return flowZero, delIndex(ov, kv)
			}, nil
		}
		return nil, fmt.Errorf("pylite: cannot compile del target")
	case *Raise:
		if s.Value == nil {
			return func(f *cframe) (flow, error) {
				return flowZero, raisef("RuntimeError", "No active exception to re-raise")
			}, nil
		}
		e, err := c.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (flow, error) {
			v, err := e(f)
			if err != nil {
				return flowZero, err
			}
			return flowZero, toError(v)
		}, nil
	case *Try:
		body, err := c.compileBlock(s.Body)
		if err != nil {
			return nil, err
		}
		var except cStmt
		if len(s.Except) > 0 {
			except, err = c.compileBlock(s.Except)
			if err != nil {
				return nil, err
			}
		}
		var fin cStmt
		if len(s.Finally) > 0 {
			fin, err = c.compileBlock(s.Finally)
			if err != nil {
				return nil, err
			}
		}
		excSlot := -1
		if s.ExcName != "" {
			excSlot = c.slot(s.ExcName)
		}
		excType := s.ExcType
		return func(f *cframe) (flow, error) {
			fl, err := body(f)
			if err != nil {
				if pe, ok := IsPyError(err); ok && matchExcept(pe, excType) && except != nil {
					if excSlot >= 0 {
						f.slots[excSlot] = data.Object(&ExcValue{Type: pe.Type, Msg: pe.Msg})
					}
					fl, err = except(f)
				}
			}
			if fin != nil {
				ffl, ferr := fin(f)
				if ferr != nil {
					return flowZero, ferr
				}
				if ffl.kind != flowNone {
					return ffl, nil
				}
			}
			return fl, err
		}, nil
	case *Assert:
		cond, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		var msg cExpr
		if s.Msg != nil {
			msg, err = c.compileExpr(s.Msg)
			if err != nil {
				return nil, err
			}
		}
		return func(f *cframe) (flow, error) {
			cv, err := cond(f)
			if err != nil {
				return flowZero, err
			}
			if !cv.Truthy() {
				m := ""
				if msg != nil {
					mv, err := msg(f)
					if err != nil {
						return flowZero, err
					}
					m = mv.String()
				}
				return flowZero, raisef("AssertionError", "%s", m)
			}
			return flowZero, nil
		}, nil
	}
	return nil, fmt.Errorf("pylite: cannot compile statement %T", st)
}

// closureEnv materializes the frame's named slots as an Env for nested
// function definitions (captures are snapshots — see DESIGN.md).
func (f *cframe) closureEnv() *Env {
	env := NewEnv(f.closure)
	for i, n := range f.names {
		env.Set(n, f.slots[i])
	}
	return env
}

// compileStore compiles an assignment target into a store closure.
func (c *compiler) compileStore(target Expr) (func(f *cframe, v data.Value) error, error) {
	switch t := target.(type) {
	case *Name:
		if c.globals[t.ID] {
			id := t.ID
			return func(f *cframe, v data.Value) error {
				f.it.Globals.Set(id, v)
				return nil
			}, nil
		}
		slot := c.slot(t.ID)
		return func(f *cframe, v data.Value) error {
			f.slots[slot] = v
			return nil
		}, nil
	case *Attr:
		obj, err := c.compileExpr(t.Obj)
		if err != nil {
			return nil, err
		}
		name := t.Name
		return func(f *cframe, v data.Value) error {
			ov, err := obj(f)
			if err != nil {
				return err
			}
			return setAttr(ov, name, v)
		}, nil
	case *Index:
		obj, err := c.compileExpr(t.Obj)
		if err != nil {
			return nil, err
		}
		key, err := c.compileExpr(t.Key)
		if err != nil {
			return nil, err
		}
		return func(f *cframe, v data.Value) error {
			ov, err := obj(f)
			if err != nil {
				return err
			}
			kv, err := key(f)
			if err != nil {
				return err
			}
			return setIndex(ov, kv, v)
		}, nil
	case *TupleLit:
		subs := make([]func(f *cframe, v data.Value) error, len(t.Items))
		for i, sub := range t.Items {
			store, err := c.compileStore(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = store
		}
		return func(f *cframe, v data.Value) error {
			var items []data.Value
			if v.Kind == data.KindList {
				items = v.List().Items
			} else if err := f.it.Iterate(v, func(x data.Value) error {
				items = append(items, x)
				return nil
			}); err != nil {
				return err
			}
			if len(items) != len(subs) {
				return valueErrf("cannot unpack %d values into %d targets", len(items), len(subs))
			}
			for i, store := range subs {
				if err := store(f, items[i]); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("pylite: cannot compile assignment target %T", target)
}
