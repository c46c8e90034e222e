package pylite

import (
	"math"
	"strconv"
	"strings"

	"qfusor/internal/data"
)

// builtins is the builtin namespace of every runtime in the process:
// built once and never written, so the three tiers read it without a
// lock, and the closure tier and the VM resolve a name's builtin at
// compile time (resolveGlobal). (Filled by init: the builtins reach the
// compiler through the runtime, which a variable initializer may not.)
var builtins map[string]data.Value

func init() { builtins = newBuiltins() }

func newBuiltins() map[string]data.Value {
	b := map[string]data.Value{}
	reg := func(name string, fn func(ctx *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error)) {
		b[name] = newBuiltin(name, fn)
	}

	reg("len", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("len", args, 1, 1); err != nil {
			return data.Null, err
		}
		n, err := pyLen(args[0])
		return data.Int(n), err
	})

	reg("range", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("range", args, 1, 3); err != nil {
			return data.Null, err
		}
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			stop, _ = args[0].AsInt()
		case 2:
			start, _ = args[0].AsInt()
			stop, _ = args[1].AsInt()
		case 3:
			start, _ = args[0].AsInt()
			stop, _ = args[1].AsInt()
			step, _ = args[2].AsInt()
			if step == 0 {
				return data.Null, valueErrf("range() arg 3 must not be zero")
			}
		}
		return data.Object(&RangeObj{Start: start, Stop: stop, Step: step}), nil
	})

	reg("int", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.Int(0), nil
		}
		v := args[0]
		switch v.Kind {
		case data.KindInt, data.KindBool:
			return data.Int(v.I), nil
		case data.KindFloat:
			return data.Int(int64(v.F)), nil
		case data.KindString:
			s := strings.TrimSpace(v.S)
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				// Python allows int("12.0")? No — but UDF data is dirty, so
				// match CPython strictly and raise.
				return data.Null, valueErrf("invalid literal for int() with base 10: %q", v.S)
			}
			return data.Int(i), nil
		}
		return data.Null, typeErrf("int() argument must be a string or a number, not '%s'", v.TypeName())
	})

	reg("float", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.Float(0), nil
		}
		v := args[0]
		switch v.Kind {
		case data.KindInt, data.KindBool:
			return data.Float(float64(v.I)), nil
		case data.KindFloat:
			return v, nil
		case data.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return data.Null, valueErrf("could not convert string to float: %q", v.S)
			}
			return data.Float(f), nil
		}
		return data.Null, typeErrf("float() argument must be a string or a number, not '%s'", v.TypeName())
	})

	reg("str", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.Str(""), nil
		}
		return data.Str(pyStr(args[0])), nil
	})

	reg("repr", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("repr", args, 1, 1); err != nil {
			return data.Null, err
		}
		return data.Str(args[0].Repr()), nil
	})

	reg("bool", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.Bool(false), nil
		}
		return data.Bool(args[0].Truthy()), nil
	})

	reg("abs", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("abs", args, 1, 1); err != nil {
			return data.Null, err
		}
		v := args[0]
		switch v.Kind {
		case data.KindInt, data.KindBool:
			if v.I < 0 {
				return data.Int(-v.I), nil
			}
			return data.Int(v.I), nil
		case data.KindFloat:
			return data.Float(math.Abs(v.F)), nil
		}
		return data.Null, typeErrf("bad operand type for abs(): '%s'", v.TypeName())
	})

	reg("round", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("round", args, 1, 2); err != nil {
			return data.Null, err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return data.Null, typeErrf("type %s doesn't define __round__", args[0].TypeName())
		}
		if len(args) == 2 {
			nd, _ := args[1].AsInt()
			scale := math.Pow(10, float64(nd))
			return data.Float(math.Round(f*scale) / scale), nil
		}
		return data.Int(int64(math.Round(f))), nil
	})

	reg("min", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		return minMax(ctx, args, true)
	})
	reg("max", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		return minMax(ctx, args, false)
	})

	reg("sum", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("sum", args, 1, 2); err != nil {
			return data.Null, err
		}
		acc := data.Int(0)
		if len(args) == 2 {
			acc = args[1]
		}
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			r, err := binOp("+", acc, v)
			if err != nil {
				return err
			}
			acc = r
			return nil
		})
		return acc, err
	})

	reg("sorted", func(ctx *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
		if err := wantArgs("sorted", args, 1, 1); err != nil {
			return data.Null, err
		}
		var items []data.Value
		if err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		}); err != nil {
			return data.Null, err
		}
		keyFn := data.Null
		reverse := false
		if kwargs != nil {
			if k, ok := kwargs["key"]; ok {
				keyFn = k
			}
			if r, ok := kwargs["reverse"]; ok {
				reverse = r.Truthy()
			}
		}
		if err := sortItems(ctx, items, keyFn, reverse); err != nil {
			return data.Null, err
		}
		return data.NewList(items), nil
	})

	reg("list", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.NewList(nil), nil
		}
		var items []data.Value
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		})
		return data.NewList(items), err
	})

	reg("tuple", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if len(args) == 0 {
			return data.NewList(nil), nil
		}
		var items []data.Value
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		})
		return data.NewList(items), err
	})

	reg("set", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		s := NewSet()
		if len(args) == 1 {
			if err := ctx.it.Iterate(args[0], func(v data.Value) error {
				s.Add(v)
				return nil
			}); err != nil {
				return data.Null, err
			}
		}
		return data.Object(s), nil
	})

	reg("dict", func(ctx *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
		d := data.NewDict()
		dd := d.Dict()
		if len(args) == 1 {
			if od := args[0].Dict(); od != nil {
				for i, k := range od.Keys {
					dd.Set(k, od.Vals[i])
				}
			} else if err := ctx.it.Iterate(args[0], func(v data.Value) error {
				pair := v.List()
				if pair == nil || len(pair.Items) != 2 {
					return valueErrf("dictionary update sequence element is not a pair")
				}
				dd.Set(dictKey(pair.Items[0]), pair.Items[1])
				return nil
			}); err != nil {
				return data.Null, err
			}
		}
		for k, v := range kwargs {
			dd.Set(k, v)
		}
		return d, nil
	})

	// The lazy builtins (enumerate, zip, map, filter) are generators
	// whose bodies consume their sources: a drain pushes each source item
	// through the body to its consumer, and zip pulls its sources.
	reg("enumerate", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("enumerate", args, 1, 2); err != nil {
			return data.Null, err
		}
		start := int64(0)
		if len(args) == 2 {
			start, _ = args[1].AsInt()
		}
		src := args[0]
		if _, err := ValueIter(src); err != nil {
			return data.Null, err
		}
		return data.Object(NewGenerator(ctx.it, func(it *Interp, yield func(data.Value) error) error {
			i := start
			return it.Iterate(src, func(v data.Value) error {
				i++
				return yield(data.NewList([]data.Value{data.Int(i - 1), v}))
			})
		})), nil
	})

	reg("zip", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		srcs := append([]data.Value(nil), args...)
		for _, a := range srcs {
			if _, err := ValueIter(a); err != nil {
				return data.Null, err
			}
		}
		return data.Object(NewGenerator(ctx.it, func(_ *Interp, yield func(data.Value) error) error {
			iters := make([]Iterator, len(srcs))
			for i, a := range srcs {
				iters[i], _ = ValueIter(a) // iterable: checked when zip was called
			}
			defer func() {
				for _, it := range iters {
					it.Close()
				}
			}()
			for {
				row := make([]data.Value, len(iters))
				for i, it := range iters {
					v, ok, err := it.Next()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
					row[i] = v
				}
				if err := yield(data.NewList(row)); err != nil {
					return err
				}
			}
		})), nil
	})

	reg("reversed", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("reversed", args, 1, 1); err != nil {
			return data.Null, err
		}
		var items []data.Value
		if err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		}); err != nil {
			return data.Null, err
		}
		for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
			items[i], items[j] = items[j], items[i]
		}
		return data.NewList(items), nil
	})

	reg("any", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		res := false
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			if v.Truthy() {
				res = true
				return errLoopExit
			}
			return nil
		})
		if err == errLoopExit {
			err = nil
		}
		return data.Bool(res), err
	})

	reg("all", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		res := true
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			if !v.Truthy() {
				res = false
				return errLoopExit
			}
			return nil
		})
		if err == errLoopExit {
			err = nil
		}
		return data.Bool(res), err
	})

	reg("map", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("map", args, 2, 2); err != nil {
			return data.Null, err
		}
		fn, src := args[0], args[1]
		if _, err := ValueIter(src); err != nil {
			return data.Null, err
		}
		return data.Object(NewGenerator(ctx.it, func(it *Interp, yield func(data.Value) error) error {
			return it.Iterate(src, func(v data.Value) error {
				r, err := it.Call(fn, []data.Value{v})
				if err != nil {
					return err
				}
				return yield(r)
			})
		})), nil
	})

	reg("filter", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("filter", args, 2, 2); err != nil {
			return data.Null, err
		}
		fn, src := args[0], args[1]
		if _, err := ValueIter(src); err != nil {
			return data.Null, err
		}
		return data.Object(NewGenerator(ctx.it, func(it *Interp, yield func(data.Value) error) error {
			return it.Iterate(src, func(v data.Value) error {
				keep := v.Truthy()
				if !fn.IsNull() {
					r, err := it.Call(fn, []data.Value{v})
					if err != nil {
						return err
					}
					keep = r.Truthy()
				}
				if !keep {
					return nil
				}
				return yield(v)
			})
		})), nil
	})

	reg("isinstance", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("isinstance", args, 2, 2); err != nil {
			return data.Null, err
		}
		want := ""
		if b, ok := args[1].P.(*Builtin); ok {
			want = b.Name
		} else if args[1].Kind == data.KindString {
			want = args[1].S
		}
		got := args[0].TypeName()
		if want == "tuple" {
			want = "list"
		}
		return data.Bool(got == want || (want == "float" && got == "int")), nil
	})

	reg("type", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("type", args, 1, 1); err != nil {
			return data.Null, err
		}
		return data.Str(args[0].TypeName()), nil
	})

	reg("ord", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("ord", args, 1, 1); err != nil {
			return data.Null, err
		}
		if args[0].Kind != data.KindString || len(args[0].S) != 1 {
			return data.Null, typeErrf("ord() expected a character")
		}
		return data.Int(int64(args[0].S[0])), nil
	})

	reg("chr", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("chr", args, 1, 1); err != nil {
			return data.Null, err
		}
		i, _ := args[0].AsInt()
		return data.Str(string(rune(i))), nil
	})

	reg("hash", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("hash", args, 1, 1); err != nil {
			return data.Null, err
		}
		k := args[0].Key()
		var h int64 = 1469598103934665603
		for i := 0; i < len(k); i++ {
			h ^= int64(k[i])
			h *= 1099511628211
		}
		return data.Int(h), nil
	})

	reg("print", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		// UDFs should not write to the engine's stdout; print is a no-op
		// kept for developer convenience.
		return data.Null, nil
	})

	reg("next", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("next", args, 1, 2); err != nil {
			return data.Null, err
		}
		g, ok := args[0].P.(*Generator)
		if args[0].Kind != data.KindObject || !ok {
			return data.Null, typeErrf("'%s' object is not an iterator", args[0].TypeName())
		}
		v, more, err := g.Next()
		if err != nil {
			return data.Null, err
		}
		if !more {
			if len(args) == 2 {
				return args[1], nil
			}
			return data.Null, raisef("StopIteration", "")
		}
		return v, nil
	})

	// Exception classes: calling them builds an ExcValue.
	for _, exc := range []string{"Exception", "ValueError", "TypeError", "KeyError",
		"IndexError", "AttributeError", "ZeroDivisionError", "StopIteration", "RuntimeError", "NameError"} {
		exc := exc
		reg(exc, func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			msg := ""
			if len(args) > 0 {
				msg = args[0].String()
			}
			return data.Object(&ExcValue{Type: exc, Msg: msg}), nil
		})
	}

	return b
}

func minMax(ctx *Ctx, args []data.Value, isMin bool) (data.Value, error) {
	var items []data.Value
	if len(args) == 1 {
		if err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		}); err != nil {
			return data.Null, err
		}
	} else {
		items = args
	}
	if len(items) == 0 {
		return data.Null, valueErrf("min()/max() arg is an empty sequence")
	}
	best := items[0]
	for _, v := range items[1:] {
		c, ok := data.Compare(v, best)
		if !ok {
			return data.Null, typeErrf("'<' not supported between instances of '%s' and '%s'", v.TypeName(), best.TypeName())
		}
		if (isMin && c < 0) || (!isMin && c > 0) {
			best = v
		}
	}
	return best, nil
}
