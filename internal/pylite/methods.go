package pylite

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"qfusor/internal/data"
)

// getAttr resolves obj.name for runtime objects and built-in methods.
// Built-in methods are returned as bound Builtin closures so that
// `f = s.lower; f()` works like Python.
func getAttr(ctx *Ctx, obj data.Value, name string) (data.Value, error) {
	switch obj.Kind {
	case data.KindObject:
		switch o := obj.P.(type) {
		case *Instance:
			if v, ok := o.Fields[name]; ok {
				return v, nil
			}
			if m, ok := o.Class.Methods[name]; ok {
				return data.Object(&BoundMethod{Self: obj, Fn: m}), nil
			}
			return data.Null, attrErrf("'%s' object has no attribute '%s'", o.Class.Name, name)
		case *ModuleObj:
			if v, ok := o.Attrs[name]; ok {
				return v, nil
			}
			return data.Null, attrErrf("module '%s' has no attribute '%s'", o.Name, name)
		case *Generator:
			if name == "close" {
				return newBuiltin("close", func(_ *Ctx, _ []data.Value, _ map[string]data.Value) (data.Value, error) {
					o.Close()
					return data.Null, nil
				}), nil
			}
		case *ExcValue:
			switch name {
			case "args":
				return data.NewList([]data.Value{data.Str(o.Msg)}), nil
			case "message":
				return data.Str(o.Msg), nil
			}
		}
	}
	// Built-in type methods become bound builtins.
	recv := obj
	return newBuiltin(name, func(c *Ctx, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
		return callMethod(c, recv, name, args, kwargs)
	}), nil
}

// setAttr implements obj.name = v (instances only).
func setAttr(obj data.Value, name string, v data.Value) error {
	if obj.Kind == data.KindObject {
		if in, ok := obj.P.(*Instance); ok {
			in.Fields[name] = v
			return nil
		}
	}
	return attrErrf("'%s' object attribute assignment not supported", obj.TypeName())
}

// splitValues is strings.SplitN(s, sep, n) written straight into the
// list's items, with no intermediate []string. Like SplitN, an empty sep
// splits after each UTF-8 sequence, and n == 0 yields no items.
func splitValues(s, sep string, n int) []data.Value {
	if sep == "" {
		if l := utf8.RuneCountInString(s); n < 0 || n > l {
			n = l
		}
		items := make([]data.Value, n)
		for i := 0; i < n-1; i++ {
			_, size := utf8.DecodeRuneInString(s)
			items[i] = data.Str(s[:size])
			s = s[size:]
		}
		if n > 0 {
			items[n-1] = data.Str(s)
		}
		return items
	}
	if n < 0 {
		n = strings.Count(s, sep) + 1
	}
	if n > len(s)+1 {
		n = len(s) + 1
	}
	items := make([]data.Value, n)
	if n == 0 {
		return items
	}
	i := 0
	for ; i < n-1; i++ {
		m := strings.Index(s, sep)
		if m < 0 {
			break
		}
		items[i] = data.Str(s[:m])
		s = s[m+len(sep):]
	}
	items[i] = data.Str(s)
	return items[:i+1]
}

// callMethod dispatches a built-in method call on a value.
func callMethod(ctx *Ctx, obj data.Value, name string, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	switch obj.Kind {
	case data.KindString:
		return strMethod(ctx, obj.S, name, args)
	case data.KindList:
		return listMethod(ctx, obj, name, args, kwargs)
	case data.KindDict:
		return dictMethod(obj.Dict(), name, args)
	case data.KindObject:
		switch o := obj.P.(type) {
		case *Set:
			return setMethod(ctx, o, name, args)
		case *MatchObj:
			return matchMethod(o, name, args)
		}
	}
	return data.Null, attrErrf("'%s' object has no attribute '%s'", obj.TypeName(), name)
}

func wantArgs(name string, args []data.Value, lo, hi int) error {
	if len(args) < lo || len(args) > hi {
		return typeErrf("%s() takes %d to %d arguments (%d given)", name, lo, hi, len(args))
	}
	return nil
}

func argStr(name string, args []data.Value, i int) (string, error) {
	if args[i].Kind != data.KindString {
		return "", typeErrf("%s() argument %d must be str, not %s", name, i+1, args[i].TypeName())
	}
	return args[i].S, nil
}

// ---- str methods ----

func strMethod(ctx *Ctx, s, name string, args []data.Value) (data.Value, error) {
	switch name {
	case "lower":
		return data.Str(strings.ToLower(s)), nil
	case "upper":
		return data.Str(strings.ToUpper(s)), nil
	case "strip", "lstrip", "rstrip":
		cutset := " \t\n\r"
		if len(args) == 1 {
			c, err := argStr(name, args, 0)
			if err != nil {
				return data.Null, err
			}
			cutset = c
		}
		switch name {
		case "strip":
			return data.Str(strings.Trim(s, cutset)), nil
		case "lstrip":
			return data.Str(strings.TrimLeft(s, cutset)), nil
		default:
			return data.Str(strings.TrimRight(s, cutset)), nil
		}
	case "split":
		if len(args) == 0 || args[0].IsNull() {
			fields := strings.Fields(s)
			items := make([]data.Value, len(fields))
			for i, f := range fields {
				items[i] = data.Str(f)
			}
			return data.NewList(items), nil
		}
		sep, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		limit := -1
		if len(args) > 1 {
			n, _ := args[1].AsInt()
			limit = int(n) + 1
		}
		return data.NewList(splitValues(s, sep, limit)), nil
	case "rsplit":
		sep := " "
		if len(args) > 0 {
			c, err := argStr(name, args, 0)
			if err != nil {
				return data.Null, err
			}
			sep = c
		}
		maxSplit := -1
		if len(args) > 1 {
			n, _ := args[1].AsInt()
			maxSplit = int(n)
		}
		parts := strings.Split(s, sep)
		if maxSplit >= 0 && len(parts) > maxSplit+1 {
			head := strings.Join(parts[:len(parts)-maxSplit], sep)
			parts = append([]string{head}, parts[len(parts)-maxSplit:]...)
		}
		items := make([]data.Value, len(parts))
		for i, p := range parts {
			items[i] = data.Str(p)
		}
		return data.NewList(items), nil
	case "splitlines":
		s2 := strings.TrimSuffix(s, "\n")
		var items []data.Value
		if s2 != "" || s != "" {
			for _, line := range strings.Split(s2, "\n") {
				items = append(items, data.Str(line))
			}
		}
		if s == "" {
			items = nil
		}
		return data.NewList(items), nil
	case "join":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		var parts []string
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			if v.Kind != data.KindString {
				return typeErrf("sequence item: expected str instance, %s found", v.TypeName())
			}
			parts = append(parts, v.S)
			return nil
		})
		if err != nil {
			return data.Null, err
		}
		return data.Str(strings.Join(parts, s)), nil
	case "replace":
		if err := wantArgs(name, args, 2, 3); err != nil {
			return data.Null, err
		}
		old, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		nw, err := argStr(name, args, 1)
		if err != nil {
			return data.Null, err
		}
		n := -1
		if len(args) == 3 {
			c, _ := args[2].AsInt()
			n = int(c)
		}
		return data.Str(strings.Replace(s, old, nw, n)), nil
	case "startswith":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		if args[0].Kind == data.KindList {
			for _, p := range args[0].List().Items {
				if p.Kind == data.KindString && strings.HasPrefix(s, p.S) {
					return data.Bool(true), nil
				}
			}
			return data.Bool(false), nil
		}
		p, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		return data.Bool(strings.HasPrefix(s, p)), nil
	case "endswith":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		if args[0].Kind == data.KindList {
			for _, p := range args[0].List().Items {
				if p.Kind == data.KindString && strings.HasSuffix(s, p.S) {
					return data.Bool(true), nil
				}
			}
			return data.Bool(false), nil
		}
		p, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		return data.Bool(strings.HasSuffix(s, p)), nil
	case "find", "index":
		if err := wantArgs(name, args, 1, 2); err != nil {
			return data.Null, err
		}
		sub, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		from := 0
		if len(args) == 2 {
			n, _ := args[1].AsInt()
			from = int(normIndex(n, int64(len(s))))
			if from < 0 {
				from = 0
			}
			if from > len(s) {
				from = len(s)
			}
		}
		idx := strings.Index(s[from:], sub)
		if idx >= 0 {
			idx += from
		}
		if idx < 0 && name == "index" {
			return data.Null, valueErrf("substring not found")
		}
		return data.Int(int64(idx)), nil
	case "rfind":
		sub, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		return data.Int(int64(strings.LastIndex(s, sub))), nil
	case "count":
		sub, err := argStr(name, args, 0)
		if err != nil {
			return data.Null, err
		}
		return data.Int(int64(strings.Count(s, sub))), nil
	case "isdigit":
		if s == "" {
			return data.Bool(false), nil
		}
		for i := 0; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return data.Bool(false), nil
			}
		}
		return data.Bool(true), nil
	case "isalpha":
		if s == "" {
			return data.Bool(false), nil
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
				return data.Bool(false), nil
			}
		}
		return data.Bool(true), nil
	case "isalnum":
		if s == "" {
			return data.Bool(false), nil
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				return data.Bool(false), nil
			}
		}
		return data.Bool(true), nil
	case "isspace":
		if s == "" {
			return data.Bool(false), nil
		}
		return data.Bool(strings.TrimSpace(s) == ""), nil
	case "title":
		return data.Str(titleCase(s)), nil
	case "capitalize":
		if s == "" {
			return data.Str(s), nil
		}
		return data.Str(strings.ToUpper(s[:1]) + strings.ToLower(s[1:])), nil
	case "zfill":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		w, _ := args[0].AsInt()
		for int64(len(s)) < w {
			s = "0" + s
		}
		return data.Str(s), nil
	case "ljust", "rjust":
		w, _ := args[0].AsInt()
		pad := " "
		if len(args) > 1 {
			pad = args[1].S
		}
		for int64(len(s)) < w {
			if name == "ljust" {
				s = s + pad
			} else {
				s = pad + s
			}
		}
		return data.Str(s), nil
	case "format":
		return strFormat(s, args)
	case "encode", "decode":
		return data.Str(s), nil
	case "swapcase":
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c >= 'a' && c <= 'z':
				b.WriteByte(c - 32)
			case c >= 'A' && c <= 'Z':
				b.WriteByte(c + 32)
			default:
				b.WriteByte(c)
			}
		}
		return data.Str(b.String()), nil
	}
	return data.Null, attrErrf("'str' object has no attribute '%s'", name)
}

func titleCase(s string) string {
	var b strings.Builder
	prevAlpha := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		isAlpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		switch {
		case isAlpha && !prevAlpha:
			b.WriteString(strings.ToUpper(string(c)))
		case isAlpha:
			b.WriteString(strings.ToLower(string(c)))
		default:
			b.WriteByte(c)
		}
		prevAlpha = isAlpha
	}
	return b.String()
}

// strFormat implements str.format with {} and {N} placeholders.
func strFormat(format string, args []data.Value) (data.Value, error) {
	var b strings.Builder
	auto := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		switch c {
		case '{':
			if i+1 < len(format) && format[i+1] == '{' {
				b.WriteByte('{')
				i++
				continue
			}
			j := strings.IndexByte(format[i:], '}')
			if j < 0 {
				return data.Null, valueErrf("single '{' encountered in format string")
			}
			spec := format[i+1 : i+j]
			i += j
			idx := auto
			if spec != "" {
				// Ignore any :format part.
				if k := strings.IndexByte(spec, ':'); k >= 0 {
					spec = spec[:k]
				}
				if spec != "" {
					n, err := strconv.Atoi(spec)
					if err != nil {
						return data.Null, valueErrf("unsupported format field %q", spec)
					}
					idx = n
				} else {
					auto++
				}
			} else {
				auto++
			}
			if idx < 0 || idx >= len(args) {
				return data.Null, indexErrf("replacement index %d out of range", idx)
			}
			b.WriteString(pyStr(args[idx]))
		case '}':
			if i+1 < len(format) && format[i+1] == '}' {
				b.WriteByte('}')
				i++
				continue
			}
			b.WriteByte('}')
		default:
			b.WriteByte(c)
		}
	}
	return data.Str(b.String()), nil
}

// ---- list methods ----

func listMethod(ctx *Ctx, obj data.Value, name string, args []data.Value, kwargs map[string]data.Value) (data.Value, error) {
	l := obj.List()
	switch name {
	case "append":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		l.Items = append(l.Items, args[0])
		return data.Null, nil
	case "extend":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		err := ctx.it.Iterate(args[0], func(v data.Value) error {
			l.Items = append(l.Items, v)
			return nil
		})
		return data.Null, err
	case "insert":
		if err := wantArgs(name, args, 2, 2); err != nil {
			return data.Null, err
		}
		i, _ := args[0].AsInt()
		n := int64(len(l.Items))
		i = normIndex(i, n)
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		l.Items = append(l.Items, data.Null)
		copy(l.Items[i+1:], l.Items[i:])
		l.Items[i] = args[1]
		return data.Null, nil
	case "pop":
		i := int64(len(l.Items)) - 1
		if len(args) == 1 {
			n, _ := args[0].AsInt()
			i = normIndex(n, int64(len(l.Items)))
		}
		if i < 0 || i >= int64(len(l.Items)) {
			return data.Null, indexErrf("pop index out of range")
		}
		v := l.Items[i]
		l.Items = append(l.Items[:i], l.Items[i+1:]...)
		return v, nil
	case "remove":
		for i, it := range l.Items {
			if data.Equal(it, args[0]) {
				l.Items = append(l.Items[:i], l.Items[i+1:]...)
				return data.Null, nil
			}
		}
		return data.Null, valueErrf("list.remove(x): x not in list")
	case "index":
		for i, it := range l.Items {
			if data.Equal(it, args[0]) {
				return data.Int(int64(i)), nil
			}
		}
		return data.Null, valueErrf("%s is not in list", args[0].Repr())
	case "count":
		n := int64(0)
		for _, it := range l.Items {
			if data.Equal(it, args[0]) {
				n++
			}
		}
		return data.Int(n), nil
	case "sort":
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
		if err := sortItems(ctx, l.Items, keyFn, reverse); err != nil {
			return data.Null, err
		}
		return data.Null, nil
	case "reverse":
		for i, j := 0, len(l.Items)-1; i < j; i, j = i+1, j-1 {
			l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
		}
		return data.Null, nil
	case "copy":
		out := make([]data.Value, len(l.Items))
		copy(out, l.Items)
		return data.NewList(out), nil
	case "clear":
		l.Items = l.Items[:0]
		return data.Null, nil
	}
	return data.Null, attrErrf("'list' object has no attribute '%s'", name)
}

// sortItems sorts values in place, optionally through a key function.
func sortItems(ctx *Ctx, items []data.Value, keyFn data.Value, reverse bool) error {
	if keyFn.IsNull() {
		data.SortValues(items)
	} else {
		keys := make([]data.Value, len(items))
		for i, it := range items {
			k, err := ctx.Call(keyFn, []data.Value{it})
			if err != nil {
				return err
			}
			keys[i] = k
		}
		// Simple stable sort by keys (insertion: fine for UDF-sized lists,
		// but use merge for large inputs).
		idx := make([]int, len(items))
		for i := range idx {
			idx[i] = i
		}
		stableSortBy(idx, func(a, b int) bool {
			c, ok := data.Compare(keys[a], keys[b])
			return ok && c < 0
		})
		out := make([]data.Value, len(items))
		for i, j := range idx {
			out[i] = items[j]
		}
		copy(items, out)
	}
	if reverse {
		for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
			items[i], items[j] = items[j], items[i]
		}
	}
	return nil
}

// stableSortBy is a stable merge sort over an index slice.
func stableSortBy(idx []int, less func(a, b int) bool) {
	if len(idx) < 2 {
		return
	}
	tmp := make([]int, len(idx))
	var merge func(lo, hi int)
	merge = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		merge(lo, mid)
		merge(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if less(idx[j], idx[i]) {
				tmp[k] = idx[j]
				j++
			} else {
				tmp[k] = idx[i]
				i++
			}
			k++
		}
		for i < mid {
			tmp[k] = idx[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = idx[j]
			j++
			k++
		}
		copy(idx[lo:hi], tmp[lo:hi])
	}
	merge(0, len(idx))
}

// ---- dict methods ----

func dictMethod(d *data.Dict, name string, args []data.Value) (data.Value, error) {
	switch name {
	case "get":
		if err := wantArgs(name, args, 1, 2); err != nil {
			return data.Null, err
		}
		v, ok := d.Get(dictKey(args[0]))
		if ok {
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return data.Null, nil
	case "keys":
		items := make([]data.Value, len(d.Keys))
		for i, k := range d.Keys {
			items[i] = data.Str(k)
		}
		return data.NewList(items), nil
	case "values":
		items := make([]data.Value, len(d.Vals))
		copy(items, d.Vals)
		return data.NewList(items), nil
	case "items":
		items := make([]data.Value, len(d.Keys))
		for i, k := range d.Keys {
			items[i] = data.NewList([]data.Value{data.Str(k), d.Vals[i]})
		}
		return data.NewList(items), nil
	case "pop":
		if err := wantArgs(name, args, 1, 2); err != nil {
			return data.Null, err
		}
		k := dictKey(args[0])
		v, ok := d.Get(k)
		if ok {
			d.Delete(k)
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return data.Null, keyErrf("%s", args[0].Repr())
	case "update":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		od := args[0].Dict()
		if od == nil {
			return data.Null, typeErrf("update() argument must be dict")
		}
		for i, k := range od.Keys {
			d.Set(k, od.Vals[i])
		}
		return data.Null, nil
	case "setdefault":
		if err := wantArgs(name, args, 1, 2); err != nil {
			return data.Null, err
		}
		k := dictKey(args[0])
		if v, ok := d.Get(k); ok {
			return v, nil
		}
		def := data.Null
		if len(args) == 2 {
			def = args[1]
		}
		d.Set(k, def)
		return def, nil
	case "clear":
		*d = data.Dict{}
		return data.Null, nil
	case "copy":
		out := data.NewDict()
		od := out.Dict()
		for i, k := range d.Keys {
			od.Set(k, d.Vals[i])
		}
		return out, nil
	}
	return data.Null, attrErrf("'dict' object has no attribute '%s'", name)
}

// ---- set methods ----

func setMethod(ctx *Ctx, s *Set, name string, args []data.Value) (data.Value, error) {
	switch name {
	case "add":
		if err := wantArgs(name, args, 1, 1); err != nil {
			return data.Null, err
		}
		s.Add(args[0])
		return data.Null, nil
	case "discard":
		s.Discard(args[0])
		return data.Null, nil
	case "remove":
		if !s.Discard(args[0]) {
			return data.Null, keyErrf("%s", args[0].Repr())
		}
		return data.Null, nil
	case "union", "intersection", "difference":
		other := NewSet()
		if len(args) == 1 {
			if err := ctx.it.Iterate(args[0], func(v data.Value) error {
				other.Add(v)
				return nil
			}); err != nil {
				return data.Null, err
			}
		}
		switch name {
		case "union":
			return setOp("|", s, other), nil
		case "intersection":
			return setOp("&", s, other), nil
		default:
			out := NewSet()
			for _, v := range s.Items() {
				if !other.Has(v) {
					out.Add(v)
				}
			}
			return data.Object(out), nil
		}
	case "clear":
		*s = *NewSet()
		return data.Null, nil
	case "copy":
		out := NewSet()
		for _, v := range s.Items() {
			out.Add(v)
		}
		return data.Object(out), nil
	}
	return data.Null, attrErrf("'set' object has no attribute '%s'", name)
}
