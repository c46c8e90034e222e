package pylite

import (
	"math"
	"regexp"
	"strings"
	"sync"

	"qfusor/internal/data"
)

// modules maps each importable name to its module, built on first
// import and then shared by every runtime in the process. Sharing is safe
// because a module is immutable: setAttr refuses every receiver but a
// class instance, and nothing writes a ModuleObj's Attrs after it is
// built. (Filled by init: the builders reach importModule through the
// runtime, which a variable initializer may not.)
var modules map[string]func() data.Value

func init() {
	modules = map[string]func() data.Value{
		"json":      sync.OnceValue(jsonModule),
		"re":        sync.OnceValue(reModule),
		"math":      sync.OnceValue(mathModule),
		"itertools": sync.OnceValue(itertoolsModule),
		"string":    sync.OnceValue(stringModule),
	}
}

// importModule resolves `import name` for the supported module set.
func importModule(name string) (data.Value, error) {
	if m, ok := modules[name]; ok {
		return m(), nil
	}
	return data.Null, raisef("ImportError", "no module named %q", name)
}

// importBinding is the value an import statement binds to its i-th
// name: the module for `import m`, the module's attribute for
// `from m import a`.
func importBinding(imp *Import, i int) (data.Value, error) {
	if imp.From == "" {
		return importModule(imp.Names[i])
	}
	m, err := importModule(imp.From)
	if err != nil {
		return data.Null, err
	}
	if v, ok := m.P.(*ModuleObj).Attrs[imp.Names[i]]; ok {
		return v, nil
	}
	return data.Null, raisef("ImportError", "cannot import name '%s' from '%s'", imp.Names[i], imp.From)
}

func moduleOf(name string, attrs map[string]data.Value) data.Value {
	return data.Object(&ModuleObj{Name: name, Attrs: attrs})
}

// ---- json ----

func jsonModule() data.Value {
	return moduleOf("json", map[string]data.Value{
		"dumps": newBuiltin("json.dumps", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			if err := wantArgs("json.dumps", args, 1, 1); err != nil {
				return data.Null, err
			}
			return data.Str(data.MarshalJSONValue(args[0])), nil
		}),
		"loads": newBuiltin("json.loads", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			if err := wantArgs("json.loads", args, 1, 1); err != nil {
				return data.Null, err
			}
			if args[0].Kind != data.KindString {
				return data.Null, typeErrf("the JSON object must be str, not %s", args[0].TypeName())
			}
			v, err := data.UnmarshalJSONValue(args[0].S)
			if err != nil {
				return data.Null, valueErrf("invalid JSON: %v", err)
			}
			return v, nil
		}),
	})
}

// ---- re ----

// regexCache memoizes translated+compiled patterns across all UDF calls
// (CPython's re module does the same).
var regexCache sync.Map // string -> *regexp.Regexp

func compilePattern(pattern string) (*regexp.Regexp, error) {
	if re, ok := regexCache.Load(pattern); ok {
		return re.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(translatePattern(pattern))
	if err != nil {
		return nil, valueErrf("invalid regular expression %q: %v", pattern, err)
	}
	regexCache.Store(pattern, re)
	return re, nil
}

// translatePattern converts the small set of Python-regex spellings that
// differ from RE2 used by the workload UDFs.
func translatePattern(p string) string {
	// Python's \Z → Go's \z; named groups (?P<x>) are already shared.
	p = strings.ReplaceAll(p, `\Z`, `\z`)
	return p
}

// translateReplacement converts Python's \1 backreference spelling into
// Go's $1 (inside replacement templates only).
func translateReplacement(r string) string {
	var b strings.Builder
	for i := 0; i < len(r); i++ {
		if r[i] == '\\' && i+1 < len(r) && r[i+1] >= '0' && r[i+1] <= '9' {
			b.WriteByte('$')
			b.WriteByte(r[i+1])
			i++
			continue
		}
		if r[i] == '$' {
			b.WriteString("$$")
			continue
		}
		b.WriteByte(r[i])
	}
	return b.String()
}

// MatchObj is the object returned by re.match/re.search. Its group and
// groups methods dispatch through callMethod, like the other runtime
// objects, so a match costs no per-match method table.
type MatchObj struct {
	Groups []string
}

func matchValue(groups []string) data.Value {
	return data.Object(&MatchObj{Groups: groups})
}

func matchMethod(m *MatchObj, name string, args []data.Value) (data.Value, error) {
	switch name {
	case "group":
		i := int64(0)
		if len(args) == 1 {
			i, _ = args[0].AsInt()
		}
		if i < 0 || int(i) >= len(m.Groups) {
			return data.Null, indexErrf("no such group")
		}
		return data.Str(m.Groups[i]), nil
	case "groups":
		items := make([]data.Value, 0, len(m.Groups))
		for _, g := range m.Groups[1:] {
			items = append(items, data.Str(g))
		}
		return data.NewList(items), nil
	}
	return data.Null, attrErrf("'re.Match' object has no attribute '%s'", name)
}

func reArgs(name string, args []data.Value, n int) ([]string, error) {
	if len(args) < n {
		return nil, typeErrf("%s() missing arguments", name)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if args[i].Kind != data.KindString {
			return nil, typeErrf("%s() argument %d must be str", name, i+1)
		}
		out[i] = args[i].S
	}
	return out, nil
}

func reModule() data.Value {
	attrs := map[string]data.Value{}
	attrs["sub"] = newBuiltin("re.sub", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.sub", args, 3)
		if err != nil {
			return data.Null, err
		}
		re, err := compilePattern(ss[0])
		if err != nil {
			return data.Null, err
		}
		return data.Str(re.ReplaceAllString(ss[2], translateReplacement(ss[1]))), nil
	})
	attrs["match"] = newBuiltin("re.match", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.match", args, 2)
		if err != nil {
			return data.Null, err
		}
		re, err := compilePattern("^(?:" + translatePattern(ss[0]) + ")")
		if err != nil {
			return data.Null, err
		}
		g := re.FindStringSubmatch(ss[1])
		if g == nil {
			return data.Null, nil
		}
		return matchValue(g), nil
	})
	attrs["search"] = newBuiltin("re.search", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.search", args, 2)
		if err != nil {
			return data.Null, err
		}
		re, err := compilePattern(ss[0])
		if err != nil {
			return data.Null, err
		}
		g := re.FindStringSubmatch(ss[1])
		if g == nil {
			return data.Null, nil
		}
		return matchValue(g), nil
	})
	attrs["findall"] = newBuiltin("re.findall", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.findall", args, 2)
		if err != nil {
			return data.Null, err
		}
		re, err := compilePattern(ss[0])
		if err != nil {
			return data.Null, err
		}
		ms := re.FindAllStringSubmatch(ss[1], -1)
		items := make([]data.Value, 0, len(ms))
		for _, m := range ms {
			if len(m) > 1 {
				items = append(items, data.Str(m[1]))
			} else {
				items = append(items, data.Str(m[0]))
			}
		}
		return data.NewList(items), nil
	})
	attrs["split"] = newBuiltin("re.split", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.split", args, 2)
		if err != nil {
			return data.Null, err
		}
		re, err := compilePattern(ss[0])
		if err != nil {
			return data.Null, err
		}
		parts := re.Split(ss[1], -1)
		items := make([]data.Value, len(parts))
		for i, p := range parts {
			items[i] = data.Str(p)
		}
		return data.NewList(items), nil
	})
	attrs["compile"] = newBuiltin("re.compile", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		ss, err := reArgs("re.compile", args, 1)
		if err != nil {
			return data.Null, err
		}
		if _, err := compilePattern(ss[0]); err != nil {
			return data.Null, err
		}
		pat := ss[0]
		sub := map[string]data.Value{}
		sub["sub"] = newBuiltin("sub", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			ss2, err := reArgs("sub", args, 2)
			if err != nil {
				return data.Null, err
			}
			re, _ := compilePattern(pat)
			return data.Str(re.ReplaceAllString(ss2[1], translateReplacement(ss2[0]))), nil
		})
		sub["match"] = newBuiltin("match", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			ss2, err := reArgs("match", args, 1)
			if err != nil {
				return data.Null, err
			}
			re, err := compilePattern("^(?:" + translatePattern(pat) + ")")
			if err != nil {
				return data.Null, err
			}
			g := re.FindStringSubmatch(ss2[0])
			if g == nil {
				return data.Null, nil
			}
			return matchValue(g), nil
		})
		sub["findall"] = newBuiltin("findall", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			ss2, err := reArgs("findall", args, 1)
			if err != nil {
				return data.Null, err
			}
			re, _ := compilePattern(pat)
			ms := re.FindAllString(ss2[0], -1)
			items := make([]data.Value, len(ms))
			for i, m := range ms {
				items[i] = data.Str(m)
			}
			return data.NewList(items), nil
		})
		return data.Object(&ModuleObj{Name: "pattern", Attrs: sub}), nil
	})
	return moduleOf("re", attrs)
}

// ---- math ----

func mathModule() data.Value {
	unary := func(name string, f func(float64) float64) data.Value {
		return newBuiltin("math."+name, func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
			if err := wantArgs(name, args, 1, 1); err != nil {
				return data.Null, err
			}
			x, ok := args[0].AsFloat()
			if !ok {
				return data.Null, typeErrf("must be real number, not %s", args[0].TypeName())
			}
			return data.Float(f(x)), nil
		})
	}
	attrs := map[string]data.Value{
		"pi":    data.Float(math.Pi),
		"e":     data.Float(math.E),
		"inf":   data.Float(math.Inf(1)),
		"nan":   data.Float(math.NaN()),
		"sqrt":  unary("sqrt", math.Sqrt),
		"log":   unary("log", math.Log),
		"log2":  unary("log2", math.Log2),
		"log10": unary("log10", math.Log10),
		"exp":   unary("exp", math.Exp),
		"sin":   unary("sin", math.Sin),
		"cos":   unary("cos", math.Cos),
		"tan":   unary("tan", math.Tan),
		"fabs":  unary("fabs", math.Abs),
	}
	attrs["floor"] = newBuiltin("math.floor", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		x, _ := args[0].AsFloat()
		return data.Int(int64(math.Floor(x))), nil
	})
	attrs["ceil"] = newBuiltin("math.ceil", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		x, _ := args[0].AsFloat()
		return data.Int(int64(math.Ceil(x))), nil
	})
	attrs["pow"] = newBuiltin("math.pow", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		x, _ := args[0].AsFloat()
		y, _ := args[1].AsFloat()
		return data.Float(math.Pow(x, y)), nil
	})
	attrs["isnan"] = newBuiltin("math.isnan", func(_ *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		x, ok := args[0].AsFloat()
		return data.Bool(ok && math.IsNaN(x)), nil
	})
	return moduleOf("math", attrs)
}

// ---- itertools ----

func itertoolsModule() data.Value {
	attrs := map[string]data.Value{}
	attrs["combinations"] = newBuiltin("itertools.combinations", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		if err := wantArgs("combinations", args, 2, 2); err != nil {
			return data.Null, err
		}
		var items []data.Value
		if err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		}); err != nil {
			return data.Null, err
		}
		r, _ := args[1].AsInt()
		return data.Object(NewGenerator(ctx.it, func(_ *Interp, yield func(data.Value) error) error {
			return emitCombinations(items, int(r), yield)
		})), nil
	})
	attrs["chain"] = newBuiltin("itertools.chain", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		srcs := append([]data.Value(nil), args...)
		return data.Object(NewGenerator(ctx.it, func(it *Interp, yield func(data.Value) error) error {
			for _, src := range srcs {
				if err := it.Iterate(src, yield); err != nil {
					return err
				}
			}
			return nil
		})), nil
	})
	attrs["permutations"] = newBuiltin("itertools.permutations", func(ctx *Ctx, args []data.Value, _ map[string]data.Value) (data.Value, error) {
		var items []data.Value
		if err := ctx.it.Iterate(args[0], func(v data.Value) error {
			items = append(items, v)
			return nil
		}); err != nil {
			return data.Null, err
		}
		r := len(items)
		if len(args) > 1 {
			rr, _ := args[1].AsInt()
			r = int(rr)
		}
		return data.Object(NewGenerator(ctx.it, func(_ *Interp, yield func(data.Value) error) error {
			return emitPermutations(items, r, yield)
		})), nil
	})
	return moduleOf("itertools", attrs)
}

// emitCombinations yields all r-combinations of items in lexicographic
// index order, as list values.
func emitCombinations(items []data.Value, r int, yield func(data.Value) error) error {
	n := len(items)
	if r > n || r < 0 {
		return nil
	}
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	for {
		combo := make([]data.Value, r)
		for i, j := range idx {
			combo[i] = items[j]
		}
		if err := yield(data.NewList(combo)); err != nil {
			return err
		}
		i := r - 1
		for i >= 0 && idx[i] == i+n-r {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func emitPermutations(items []data.Value, r int, yield func(data.Value) error) error {
	n := len(items)
	if r > n || r < 0 {
		return nil
	}
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	cycles := make([]int, r)
	for i := range cycles {
		cycles[i] = n - i
	}
	emit := func() error {
		out := make([]data.Value, r)
		for i := 0; i < r; i++ {
			out[i] = items[indices[i]]
		}
		return yield(data.NewList(out))
	}
	if err := emit(); err != nil {
		return err
	}
	for {
		i := r - 1
		for ; i >= 0; i-- {
			cycles[i]--
			if cycles[i] == 0 {
				first := indices[i]
				copy(indices[i:], indices[i+1:])
				indices[n-1] = first
				cycles[i] = n - i
			} else {
				j := n - cycles[i]
				indices[i], indices[j] = indices[j], indices[i]
				if err := emit(); err != nil {
					return err
				}
				break
			}
		}
		if i < 0 {
			return nil
		}
	}
}

// ---- string ----

func stringModule() data.Value {
	return moduleOf("string", map[string]data.Value{
		"ascii_lowercase": data.Str("abcdefghijklmnopqrstuvwxyz"),
		"ascii_uppercase": data.Str("ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
		"digits":          data.Str("0123456789"),
		"punctuation":     data.Str("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"),
	})
}
