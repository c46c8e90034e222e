package pylite

import (
	"fmt"

	"qfusor/internal/data"
)

// compileExpr lowers an expression into a Go closure, with specialized
// fast paths for the scalar operations that dominate UDF hot loops.
func (c *compiler) compileExpr(e Expr) (cExpr, error) {
	switch x := e.(type) {
	case *Const:
		v := x.Value
		return func(f *cframe) (data.Value, error) { return v, nil }, nil
	case *Name:
		if slot, ok := c.slotOf[x.ID]; ok && !c.globals[x.ID] {
			return func(f *cframe) (data.Value, error) {
				return f.slots[slot], nil
			}, nil
		}
		g := resolveGlobal(c.env, x.ID)
		return func(f *cframe) (data.Value, error) { return g.load() }, nil
	case *BinOp:
		l, err := c.compileExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.Right)
		if err != nil {
			return nil, err
		}
		op := x.Op
		switch op {
		case "+":
			return func(f *cframe) (data.Value, error) {
				lv, err := l(f)
				if err != nil {
					return data.Null, err
				}
				rv, err := r(f)
				if err != nil {
					return data.Null, err
				}
				if lv.Kind == data.KindInt && rv.Kind == data.KindInt {
					return data.Int(lv.I + rv.I), nil
				}
				if lv.Kind == data.KindFloat && rv.Kind == data.KindFloat {
					return data.Float(lv.F + rv.F), nil
				}
				if lv.Kind == data.KindString && rv.Kind == data.KindString {
					return data.Str(lv.S + rv.S), nil
				}
				return binOp("+", lv, rv)
			}, nil
		case "-":
			return func(f *cframe) (data.Value, error) {
				lv, err := l(f)
				if err != nil {
					return data.Null, err
				}
				rv, err := r(f)
				if err != nil {
					return data.Null, err
				}
				if lv.Kind == data.KindInt && rv.Kind == data.KindInt {
					return data.Int(lv.I - rv.I), nil
				}
				if lv.Kind == data.KindFloat && rv.Kind == data.KindFloat {
					return data.Float(lv.F - rv.F), nil
				}
				return binOp("-", lv, rv)
			}, nil
		case "*":
			return func(f *cframe) (data.Value, error) {
				lv, err := l(f)
				if err != nil {
					return data.Null, err
				}
				rv, err := r(f)
				if err != nil {
					return data.Null, err
				}
				if lv.Kind == data.KindInt && rv.Kind == data.KindInt {
					return data.Int(lv.I * rv.I), nil
				}
				if lv.Kind == data.KindFloat && rv.Kind == data.KindFloat {
					return data.Float(lv.F * rv.F), nil
				}
				return binOp("*", lv, rv)
			}, nil
		default:
			return func(f *cframe) (data.Value, error) {
				lv, err := l(f)
				if err != nil {
					return data.Null, err
				}
				rv, err := r(f)
				if err != nil {
					return data.Null, err
				}
				return binOp(op, lv, rv)
			}, nil
		}
	case *UnaryOp:
		operand, err := c.compileExpr(x.Operand)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(f *cframe) (data.Value, error) {
			v, err := operand(f)
			if err != nil {
				return data.Null, err
			}
			return unaryOp(op, v)
		}, nil
	case *BoolOp:
		l, err := c.compileExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.Right)
		if err != nil {
			return nil, err
		}
		isAnd := x.Op == "and"
		return func(f *cframe) (data.Value, error) {
			lv, err := l(f)
			if err != nil {
				return data.Null, err
			}
			if isAnd != lv.Truthy() {
				return lv, nil
			}
			return r(f)
		}, nil
	case *Compare:
		left, err := c.compileExpr(x.Left)
		if err != nil {
			return nil, err
		}
		// Single comparison (the common case) gets a specialized closure.
		if len(x.Ops) == 1 {
			right, err := c.compileExpr(x.Comps[0])
			if err != nil {
				return nil, err
			}
			op := x.Ops[0]
			switch op {
			case "<", "<=", ">", ">=":
				return func(f *cframe) (data.Value, error) {
					lv, err := left(f)
					if err != nil {
						return data.Null, err
					}
					rv, err := right(f)
					if err != nil {
						return data.Null, err
					}
					if lv.Kind == data.KindInt && rv.Kind == data.KindInt {
						switch op {
						case "<":
							return data.Bool(lv.I < rv.I), nil
						case "<=":
							return data.Bool(lv.I <= rv.I), nil
						case ">":
							return data.Bool(lv.I > rv.I), nil
						default:
							return data.Bool(lv.I >= rv.I), nil
						}
					}
					ok, err := compareOp(op, lv, rv)
					return data.Bool(ok), err
				}, nil
			default:
				return func(f *cframe) (data.Value, error) {
					lv, err := left(f)
					if err != nil {
						return data.Null, err
					}
					rv, err := right(f)
					if err != nil {
						return data.Null, err
					}
					ok, err := compareOp(op, lv, rv)
					return data.Bool(ok), err
				}, nil
			}
		}
		comps := make([]cExpr, len(x.Comps))
		for i, ce := range x.Comps {
			cc, err := c.compileExpr(ce)
			if err != nil {
				return nil, err
			}
			comps[i] = cc
		}
		ops := x.Ops
		return func(f *cframe) (data.Value, error) {
			lv, err := left(f)
			if err != nil {
				return data.Null, err
			}
			for i, op := range ops {
				rv, err := comps[i](f)
				if err != nil {
					return data.Null, err
				}
				ok, err := compareOp(op, lv, rv)
				if err != nil {
					return data.Null, err
				}
				if !ok {
					return data.Bool(false), nil
				}
				lv = rv
			}
			return data.Bool(true), nil
		}, nil
	case *IfExp:
		cond, err := c.compileExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileExpr(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.compileExpr(x.Else)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			cv, err := cond(f)
			if err != nil {
				return data.Null, err
			}
			if cv.Truthy() {
				return then(f)
			}
			return els(f)
		}, nil
	case *Call:
		return c.compileCall(x)
	case *Attr:
		obj, err := c.compileExpr(x.Obj)
		if err != nil {
			return nil, err
		}
		name := x.Name
		return func(f *cframe) (data.Value, error) {
			ov, err := obj(f)
			if err != nil {
				return data.Null, err
			}
			return getAttr(f.it.ctx, ov, name)
		}, nil
	case *Index:
		obj, err := c.compileExpr(x.Obj)
		if err != nil {
			return nil, err
		}
		key, err := c.compileExpr(x.Key)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			ov, err := obj(f)
			if err != nil {
				return data.Null, err
			}
			kv, err := key(f)
			if err != nil {
				return data.Null, err
			}
			// Fast path: list[int] without bounds rework.
			if ov.Kind == data.KindList && kv.Kind == data.KindInt {
				items := ov.List().Items
				i := kv.I
				if i < 0 {
					i += int64(len(items))
				}
				if i >= 0 && i < int64(len(items)) {
					return items[i], nil
				}
				return data.Null, indexErrf("list index out of range")
			}
			return getIndex(ov, kv)
		}, nil
	case *SliceExpr:
		obj, err := c.compileExpr(x.Obj)
		if err != nil {
			return nil, err
		}
		var lo, hi, step cExpr
		if x.Lo != nil {
			if lo, err = c.compileExpr(x.Lo); err != nil {
				return nil, err
			}
		}
		if x.Hi != nil {
			if hi, err = c.compileExpr(x.Hi); err != nil {
				return nil, err
			}
		}
		if x.Step != nil {
			if step, err = c.compileExpr(x.Step); err != nil {
				return nil, err
			}
		}
		return func(f *cframe) (data.Value, error) {
			ov, err := obj(f)
			if err != nil {
				return data.Null, err
			}
			lov, hiv, stepv := data.Null, data.Null, data.Null
			if lo != nil {
				if lov, err = lo(f); err != nil {
					return data.Null, err
				}
			}
			if hi != nil {
				if hiv, err = hi(f); err != nil {
					return data.Null, err
				}
			}
			if step != nil {
				if stepv, err = step(f); err != nil {
					return data.Null, err
				}
			}
			return getSlice(ov, lov, hiv, stepv)
		}, nil
	case *ListLit:
		items, err := c.compileExprs(x.Items)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			out := make([]data.Value, len(items))
			for i, ie := range items {
				v, err := ie(f)
				if err != nil {
					return data.Null, err
				}
				out[i] = v
			}
			return data.NewList(out), nil
		}, nil
	case *TupleLit:
		items, err := c.compileExprs(x.Items)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			out := make([]data.Value, len(items))
			for i, ie := range items {
				v, err := ie(f)
				if err != nil {
					return data.Null, err
				}
				out[i] = v
			}
			return data.NewList(out), nil
		}, nil
	case *SetLit:
		items, err := c.compileExprs(x.Items)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			s := NewSet()
			for _, ie := range items {
				v, err := ie(f)
				if err != nil {
					return data.Null, err
				}
				s.Add(v)
			}
			return data.Object(s), nil
		}, nil
	case *DictLit:
		keys, err := c.compileExprs(x.Keys)
		if err != nil {
			return nil, err
		}
		vals, err := c.compileExprs(x.Vals)
		if err != nil {
			return nil, err
		}
		return func(f *cframe) (data.Value, error) {
			d := data.NewDict()
			dd := d.Dict()
			for i := range keys {
				kv, err := keys[i](f)
				if err != nil {
					return data.Null, err
				}
				vv, err := vals[i](f)
				if err != nil {
					return data.Null, err
				}
				dd.Set(dictKey(kv), vv)
			}
			return d, nil
		}, nil
	case *Lambda:
		def := x
		return func(f *cframe) (data.Value, error) {
			return data.Object(&FuncValue{Name: "<lambda>", Params: def.Params,
				Expr: def.Body, Env: f.closureEnv()}), nil
		}, nil
	case *Comp:
		return c.compileComp(x)
	case *Yield:
		var val cExpr
		if x.Value != nil {
			var err error
			val, err = c.compileExpr(x.Value)
			if err != nil {
				return nil, err
			}
		}
		return func(f *cframe) (data.Value, error) {
			if f.yield == nil {
				return data.Null, raisef("SyntaxError", "'yield' outside generator")
			}
			v := data.Null
			if val != nil {
				var err error
				v, err = val(f)
				if err != nil {
					return data.Null, err
				}
			}
			return data.Null, f.yield(v)
		}, nil
	}
	return nil, fmt.Errorf("pylite: cannot compile expression %T", e)
}

func (c *compiler) compileExprs(es []Expr) ([]cExpr, error) {
	out := make([]cExpr, len(es))
	for i, e := range es {
		ce, err := c.compileExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = ce
	}
	return out, nil
}

func (c *compiler) compileCall(x *Call) (cExpr, error) {
	// Method-call specialization: obj.name(args) dispatches directly to
	// the built-in method table without materializing a bound-method
	// object (what a tracing JIT's attribute caching achieves).
	if attr, ok := x.Fn.(*Attr); ok && x.StarArg == nil && len(x.KwNames) == 0 {
		if fast, err := c.compileMethodCall(attr, x.Args); err != nil {
			return nil, err
		} else if fast != nil {
			return fast, nil
		}
	}
	fn, err := c.compileExpr(x.Fn)
	if err != nil {
		return nil, err
	}
	args, err := c.compileExprs(x.Args)
	if err != nil {
		return nil, err
	}
	var star cExpr
	if x.StarArg != nil {
		star, err = c.compileExpr(x.StarArg)
		if err != nil {
			return nil, err
		}
	}
	var kwVals []cExpr
	if len(x.KwNames) > 0 {
		kwVals, err = c.compileExprs(x.KwVals)
		if err != nil {
			return nil, err
		}
	}
	kwNames := x.KwNames
	return func(f *cframe) (data.Value, error) {
		fv, err := fn(f)
		if err != nil {
			return data.Null, err
		}
		it := f.it
		base := len(it.args)
		if err := stageArgs(f, args); err != nil {
			return data.Null, err
		}
		if star != nil {
			// The items are collected first: a generator's drain restores
			// the argument stack as it found it.
			var rest []data.Value
			sv, err := star(f)
			if err == nil {
				err = it.Iterate(sv, func(v data.Value) error {
					rest = append(rest, v)
					return nil
				})
			}
			if err != nil {
				it.popArgs(base)
				return data.Null, err
			}
			it.args = append(it.args, rest...)
		}
		var kwargs map[string]data.Value
		if len(kwNames) > 0 {
			kwargs = make(map[string]data.Value, len(kwNames))
			for i, n := range kwNames {
				v, err := kwVals[i](f)
				if err != nil {
					it.popArgs(base)
					return data.Null, err
				}
				kwargs[n] = v
			}
		}
		v, err := it.callKw(fv, it.argsFrom(base), kwargs)
		it.popArgs(base)
		return v, err
	}, nil
}

// stageArgs evaluates a call's arguments onto the argument stack, left
// to right; an argument that is itself a call stages and pops its own
// vector above them. On error the stack is back where it started.
func stageArgs(f *cframe, args []cExpr) error {
	it := f.it
	base := len(it.args)
	for _, ae := range args {
		v, err := ae(f)
		if err != nil {
			it.popArgs(base)
			return err
		}
		it.args = append(it.args, v)
	}
	return nil
}

// compileMethodCall builds the specialized method-call closure, or
// returns (nil, nil) when the shape doesn't qualify.
func (c *compiler) compileMethodCall(attr *Attr, argExprs []Expr) (cExpr, error) {
	obj, err := c.compileExpr(attr.Obj)
	if err != nil {
		return nil, err
	}
	args, err := c.compileExprs(argExprs)
	if err != nil {
		return nil, err
	}
	name := attr.Name
	return func(f *cframe) (data.Value, error) {
		ov, err := obj(f)
		if err != nil {
			return data.Null, err
		}
		// list.append: the single hottest operation in fused wrappers.
		if ov.Kind == data.KindList && name == "append" && len(args) == 1 {
			v, err := args[0](f)
			if err != nil {
				return data.Null, err
			}
			l := ov.List()
			l.Items = append(l.Items, v)
			return data.Null, nil
		}
		it := f.it
		base := len(it.args)
		if err := stageArgs(f, args); err != nil {
			return data.Null, err
		}
		v, err := it.callMethodOf(ov, name, it.argsFrom(base))
		it.popArgs(base)
		return v, err
	}, nil
}

// callMethodOf dispatches ov.name(av...) without materializing a bound
// method object.
func (it *Interp) callMethodOf(ov data.Value, name string, av []data.Value) (data.Value, error) {
	switch o := ov.P.(type) {
	case *Instance:
		if ov.Kind == data.KindObject {
			if v, ok := o.Fields[name]; ok {
				return it.callKw(v, av, nil)
			}
			if m, ok := o.Class.Methods[name]; ok {
				return it.callWithSelf(m, ov, av, nil)
			}
			return data.Null, attrErrf("'%s' object has no attribute '%s'", o.Class.Name, name)
		}
	case *ModuleObj:
		if ov.Kind == data.KindObject {
			v, ok := o.Attrs[name]
			if !ok {
				return data.Null, attrErrf("module '%s' has no attribute '%s'", o.Name, name)
			}
			return it.callKw(v, av, nil)
		}
	case *Generator:
		if ov.Kind == data.KindObject && name == "close" {
			o.Close()
			return data.Null, nil
		}
	case *Set, *MatchObj:
		return callMethod(it.ctx, ov, name, av, nil)
	}
	if ov.Kind == data.KindObject {
		// Other runtime objects (exceptions, functions) resolve the
		// attribute first.
		fnv, err := getAttr(it.ctx, ov, name)
		if err != nil {
			return data.Null, err
		}
		return it.callKw(fnv, av, nil)
	}
	return callMethod(it.ctx, ov, name, av, nil)
}

func (c *compiler) compileComp(x *Comp) (cExpr, error) {
	elt, err := c.compileExpr(x.Elt)
	if err != nil {
		return nil, err
	}
	type compiledFor struct {
		iter  cExpr
		store func(f *cframe, v data.Value) error
		ifs   []cExpr
	}
	fors := make([]compiledFor, len(x.Fors))
	for i, cf := range x.Fors {
		iter, err := c.compileExpr(cf.Iter)
		if err != nil {
			return nil, err
		}
		store, err := c.compileStore(cf.Target)
		if err != nil {
			return nil, err
		}
		ifs, err := c.compileExprs(cf.Ifs)
		if err != nil {
			return nil, err
		}
		fors[i] = compiledFor{iter: iter, store: store, ifs: ifs}
	}
	var loop func(f *cframe, depth int, emit func(data.Value) error) error
	loop = func(f *cframe, depth int, emit func(data.Value) error) error {
		if depth == len(fors) {
			v, err := elt(f)
			if err != nil {
				return err
			}
			return emit(v)
		}
		cf := fors[depth]
		iterable, err := cf.iter(f)
		if err != nil {
			return err
		}
		return f.it.Iterate(iterable, func(v data.Value) error {
			if err := cf.store(f, v); err != nil {
				return err
			}
			for _, cond := range cf.ifs {
				cv, err := cond(f)
				if err != nil || !cv.Truthy() {
					return err
				}
			}
			return loop(f, depth+1, emit)
		})
	}
	switch x.Kind {
	case 'g':
		return func(f *cframe) (data.Value, error) {
			// The lazy producer runs on a snapshot of the frame: f is
			// reused by the next call at its depth once this one returns.
			snap := &cframe{slots: append([]data.Value(nil), f.slots...),
				names: f.names, closure: f.closure}
			return data.Object(NewGenerator(f.it, func(run *Interp, yield func(data.Value) error) error {
				snap.it = run
				return loop(snap, 0, yield)
			})), nil
		}, nil
	case 's':
		return func(f *cframe) (data.Value, error) {
			s := NewSet()
			err := loop(f, 0, func(v data.Value) error {
				s.Add(v)
				return nil
			})
			return data.Object(s), err
		}, nil
	default:
		return func(f *cframe) (data.Value, error) {
			var items []data.Value
			err := loop(f, 0, func(v data.Value) error {
				items = append(items, v)
				return nil
			})
			return data.NewList(items), err
		}, nil
	}
}
