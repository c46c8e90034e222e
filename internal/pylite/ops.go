package pylite

import (
	"math"
	"strconv"
	"strings"

	"qfusor/internal/data"
)

// binOp implements Python binary operator semantics over boxed values.
// This single function is shared by the interpreter and the compiled
// closures so the two tiers cannot diverge semantically.
func binOp(op string, a, b data.Value) (data.Value, error) {
	switch op {
	case "+":
		if a.Kind == data.KindString && b.Kind == data.KindString {
			return data.Str(a.S + b.S), nil
		}
		if a.Kind == data.KindList && b.Kind == data.KindList {
			al, bl := a.List().Items, b.List().Items
			out := make([]data.Value, 0, len(al)+len(bl))
			out = append(out, al...)
			out = append(out, bl...)
			return data.NewList(out), nil
		}
		return arith(op, a, b)
	case "-", "/", "//":
		return arith(op, a, b)
	case "*":
		if a.Kind == data.KindString || b.Kind == data.KindString {
			s, n := a, b
			if b.Kind == data.KindString {
				s, n = b, a
			}
			cnt, ok := n.AsInt()
			if !ok {
				return data.Null, typeErrf("can't multiply sequence by non-int of type '%s'", n.TypeName())
			}
			if cnt <= 0 {
				return data.Str(""), nil
			}
			return data.Str(strings.Repeat(s.S, int(cnt))), nil
		}
		if a.Kind == data.KindList || b.Kind == data.KindList {
			l, n := a, b
			if b.Kind == data.KindList {
				l, n = b, a
			}
			cnt, ok := n.AsInt()
			if !ok {
				return data.Null, typeErrf("can't multiply sequence by non-int of type '%s'", n.TypeName())
			}
			items := l.List().Items
			out := make([]data.Value, 0, len(items)*int(max64(cnt, 0)))
			for i := int64(0); i < cnt; i++ {
				out = append(out, items...)
			}
			return data.NewList(out), nil
		}
		return arith(op, a, b)
	case "%":
		if a.Kind == data.KindString {
			return formatPercent(a.S, b)
		}
		return arith(op, a, b)
	case "**":
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if !aok || !bok {
			return data.Null, typeErrf("unsupported operand type(s) for **: '%s' and '%s'", a.TypeName(), b.TypeName())
		}
		if a.Kind == data.KindInt && b.Kind == data.KindInt && b.I >= 0 {
			return data.Int(ipow(a.I, b.I)), nil
		}
		return data.Float(math.Pow(af, bf)), nil
	case "&", "|", "^":
		if a.Kind == data.KindObject || b.Kind == data.KindObject {
			as, aok := a.P.(*Set)
			bs, bok := b.P.(*Set)
			if aok && bok {
				return setOp(op, as, bs), nil
			}
		}
		ai, aok := a.AsInt()
		bi, bok := b.AsInt()
		if !aok || !bok {
			return data.Null, typeErrf("unsupported operand type(s) for %s: '%s' and '%s'", op, a.TypeName(), b.TypeName())
		}
		switch op {
		case "&":
			return data.Int(ai & bi), nil
		case "|":
			return data.Int(ai | bi), nil
		default:
			return data.Int(ai ^ bi), nil
		}
	}
	return data.Null, typeErrf("unsupported operator %q", op)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func ipow(base, exp int64) int64 {
	var result int64 = 1
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

func setOp(op string, a, b *Set) data.Value {
	out := NewSet()
	switch op {
	case "&":
		for _, v := range a.Items() {
			if b.Has(v) {
				out.Add(v)
			}
		}
	case "|":
		for _, v := range a.Items() {
			out.Add(v)
		}
		for _, v := range b.Items() {
			out.Add(v)
		}
	case "^":
		for _, v := range a.Items() {
			if !b.Has(v) {
				out.Add(v)
			}
		}
		for _, v := range b.Items() {
			if !a.Has(v) {
				out.Add(v)
			}
		}
	}
	return data.Object(out)
}

// arith handles numeric +,-,*,/,//,%.
func arith(op string, a, b data.Value) (data.Value, error) {
	if a.IsNull() || b.IsNull() {
		return data.Null, typeErrf("unsupported operand type(s) for %s: '%s' and '%s'", op, a.TypeName(), b.TypeName())
	}
	bothInt := (a.Kind == data.KindInt || a.Kind == data.KindBool) &&
		(b.Kind == data.KindInt || b.Kind == data.KindBool)
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return data.Null, typeErrf("unsupported operand type(s) for %s: '%s' and '%s'", op, a.TypeName(), b.TypeName())
	}
	if bothInt {
		ai, bi := a.I, b.I
		switch op {
		case "+":
			return data.Int(ai + bi), nil
		case "-":
			return data.Int(ai - bi), nil
		case "*":
			return data.Int(ai * bi), nil
		case "/":
			if bi == 0 {
				return data.Null, raisef("ZeroDivisionError", "division by zero")
			}
			return data.Float(float64(ai) / float64(bi)), nil
		case "//":
			if bi == 0 {
				return data.Null, raisef("ZeroDivisionError", "integer division by zero")
			}
			return data.Int(floorDivInt(ai, bi)), nil
		case "%":
			if bi == 0 {
				return data.Null, raisef("ZeroDivisionError", "integer modulo by zero")
			}
			return data.Int(pyModInt(ai, bi)), nil
		}
	}
	switch op {
	case "+":
		return data.Float(af + bf), nil
	case "-":
		return data.Float(af - bf), nil
	case "*":
		return data.Float(af * bf), nil
	case "/":
		if bf == 0 {
			return data.Null, raisef("ZeroDivisionError", "float division by zero")
		}
		return data.Float(af / bf), nil
	case "//":
		if bf == 0 {
			return data.Null, raisef("ZeroDivisionError", "float floor division by zero")
		}
		return data.Float(math.Floor(af / bf)), nil
	case "%":
		if bf == 0 {
			return data.Null, raisef("ZeroDivisionError", "float modulo by zero")
		}
		m := math.Mod(af, bf)
		if m != 0 && (m < 0) != (bf < 0) {
			m += bf
		}
		return data.Float(m), nil
	}
	return data.Null, typeErrf("unsupported operator %q", op)
}

// floorDivInt implements Python's floor division for ints.
func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// pyModInt implements Python's modulo (result has the sign of b).
func pyModInt(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// unaryOp implements -x, +x, not x, ~x.
func unaryOp(op string, v data.Value) (data.Value, error) {
	switch op {
	case "not":
		return data.Bool(!v.Truthy()), nil
	case "-":
		switch v.Kind {
		case data.KindInt, data.KindBool:
			return data.Int(-v.I), nil
		case data.KindFloat:
			return data.Float(-v.F), nil
		}
		return data.Null, typeErrf("bad operand type for unary -: '%s'", v.TypeName())
	case "+":
		switch v.Kind {
		case data.KindInt, data.KindBool:
			return data.Int(v.I), nil
		case data.KindFloat:
			return v, nil
		}
		return data.Null, typeErrf("bad operand type for unary +: '%s'", v.TypeName())
	case "~":
		if i, ok := v.AsInt(); ok && v.Kind != data.KindFloat {
			return data.Int(^i), nil
		}
		return data.Null, typeErrf("bad operand type for unary ~: '%s'", v.TypeName())
	}
	return data.Null, typeErrf("unsupported unary operator %q", op)
}

// compareOp implements one step of a (possibly chained) comparison.
func compareOp(op string, a, b data.Value) (bool, error) {
	switch op {
	case "==":
		return data.Equal(a, b), nil
	case "!=":
		return !data.Equal(a, b), nil
	case "is":
		if a.IsNull() || b.IsNull() {
			return a.IsNull() && b.IsNull(), nil
		}
		if a.Kind == data.KindObject && b.Kind == data.KindObject {
			return a.P == b.P, nil
		}
		return data.Equal(a, b), nil
	case "is not":
		eq, _ := compareOp("is", a, b)
		return !eq, nil
	case "in":
		return contains(b, a)
	case "not in":
		c, err := contains(b, a)
		return !c, err
	case "<", "<=", ">", ">=":
		c, ok := data.Compare(a, b)
		if !ok {
			return false, typeErrf("'%s' not supported between instances of '%s' and '%s'", op, a.TypeName(), b.TypeName())
		}
		switch op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	}
	return false, typeErrf("unsupported comparison %q", op)
}

// contains implements `needle in haystack`.
func contains(haystack, needle data.Value) (bool, error) {
	switch haystack.Kind {
	case data.KindString:
		if needle.Kind != data.KindString {
			return false, typeErrf("'in <string>' requires string as left operand, not %s", needle.TypeName())
		}
		return strings.Contains(haystack.S, needle.S), nil
	case data.KindList:
		for _, it := range haystack.List().Items {
			if data.Equal(it, needle) {
				return true, nil
			}
		}
		return false, nil
	case data.KindDict:
		if needle.Kind != data.KindString {
			_, ok := haystack.Dict().Get(needle.String())
			return ok, nil
		}
		_, ok := haystack.Dict().Get(needle.S)
		return ok, nil
	case data.KindObject:
		if s, ok := haystack.P.(*Set); ok {
			return s.Has(needle), nil
		}
	}
	return false, typeErrf("argument of type '%s' is not iterable", haystack.TypeName())
}

// getIndex implements obj[key].
func getIndex(obj, key data.Value) (data.Value, error) {
	switch obj.Kind {
	case data.KindList:
		items := obj.List().Items
		i, ok := key.AsInt()
		if !ok {
			return data.Null, typeErrf("list indices must be integers, not %s", key.TypeName())
		}
		i = normIndex(i, int64(len(items)))
		if i < 0 || i >= int64(len(items)) {
			return data.Null, indexErrf("list index out of range")
		}
		return items[i], nil
	case data.KindString:
		i, ok := key.AsInt()
		if !ok {
			return data.Null, typeErrf("string indices must be integers, not %s", key.TypeName())
		}
		i = normIndex(i, int64(len(obj.S)))
		if i < 0 || i >= int64(len(obj.S)) {
			return data.Null, indexErrf("string index out of range")
		}
		return data.Str(obj.S[i : i+1]), nil
	case data.KindDict:
		k := dictKey(key)
		v, ok := obj.Dict().Get(k)
		if !ok {
			return data.Null, keyErrf("%s", key.Repr())
		}
		return v, nil
	}
	return data.Null, typeErrf("'%s' object is not subscriptable", obj.TypeName())
}

// dictKey renders a value as a dict key string.
func dictKey(key data.Value) string {
	if key.Kind == data.KindString {
		return key.S
	}
	return key.String()
}

// setIndex implements obj[key] = v.
func setIndex(obj, key, v data.Value) error {
	switch obj.Kind {
	case data.KindList:
		items := obj.List().Items
		i, ok := key.AsInt()
		if !ok {
			return typeErrf("list indices must be integers, not %s", key.TypeName())
		}
		i = normIndex(i, int64(len(items)))
		if i < 0 || i >= int64(len(items)) {
			return indexErrf("list assignment index out of range")
		}
		items[i] = v
		return nil
	case data.KindDict:
		obj.Dict().Set(dictKey(key), v)
		return nil
	}
	return typeErrf("'%s' object does not support item assignment", obj.TypeName())
}

// delIndex implements `del obj[key]`.
func delIndex(obj, key data.Value) error {
	switch obj.Kind {
	case data.KindList:
		l := obj.List()
		i, ok := key.AsInt()
		if !ok {
			return typeErrf("list indices must be integers")
		}
		i = normIndex(i, int64(len(l.Items)))
		if i < 0 || i >= int64(len(l.Items)) {
			return indexErrf("list index out of range")
		}
		l.Items = append(l.Items[:i], l.Items[i+1:]...)
		return nil
	case data.KindDict:
		if !obj.Dict().Delete(dictKey(key)) {
			return keyErrf("%s", key.Repr())
		}
		return nil
	}
	return typeErrf("'%s' object doesn't support item deletion", obj.TypeName())
}

func normIndex(i, n int64) int64 {
	if i < 0 {
		return i + n
	}
	return i
}

// getSlice implements obj[lo:hi:step] for strings and lists.
func getSlice(obj data.Value, lo, hi, step data.Value) (data.Value, error) {
	st := int64(1)
	if !step.IsNull() {
		var ok bool
		st, ok = step.AsInt()
		if !ok || st == 0 {
			return data.Null, valueErrf("slice step cannot be zero")
		}
	}
	var n int64
	switch obj.Kind {
	case data.KindString:
		n = int64(len(obj.S))
	case data.KindList:
		n = int64(len(obj.List().Items))
	default:
		return data.Null, typeErrf("'%s' object is not sliceable", obj.TypeName())
	}
	start, stop := sliceBounds(lo, hi, st, n)
	if obj.Kind == data.KindString {
		if st == 1 {
			if start >= stop {
				return data.Str(""), nil
			}
			return data.Str(obj.S[start:stop]), nil
		}
		var b strings.Builder
		for i := start; (st > 0 && i < stop) || (st < 0 && i > stop); i += st {
			b.WriteByte(obj.S[i])
		}
		return data.Str(b.String()), nil
	}
	items := obj.List().Items
	var out []data.Value
	if st == 1 {
		if start < stop {
			out = append(out, items[start:stop]...)
		}
	} else {
		for i := start; (st > 0 && i < stop) || (st < 0 && i > stop); i += st {
			out = append(out, items[i])
		}
	}
	return data.NewList(out), nil
}

// sliceBounds computes Python slice bounds for a sequence of length n.
func sliceBounds(lo, hi data.Value, step, n int64) (start, stop int64) {
	if step > 0 {
		start, stop = 0, n
	} else {
		start, stop = n-1, -1
	}
	if !lo.IsNull() {
		if i, ok := lo.AsInt(); ok {
			start = clampIndex(normIndex(i, n), step, n)
		}
	}
	if !hi.IsNull() {
		if i, ok := hi.AsInt(); ok {
			stop = clampIndex(normIndex(i, n), step, n)
		}
	}
	return start, stop
}

func clampIndex(i, step, n int64) int64 {
	if step > 0 {
		if i < 0 {
			return 0
		}
		if i > n {
			return n
		}
		return i
	}
	if i < -1 {
		return -1
	}
	if i >= n {
		return n - 1
	}
	return i
}

// pyLen implements len(v).
func pyLen(v data.Value) (int64, error) {
	switch v.Kind {
	case data.KindString:
		return int64(len(v.S)), nil
	case data.KindList:
		return int64(len(v.List().Items)), nil
	case data.KindDict:
		return int64(v.Dict().Len()), nil
	case data.KindObject:
		switch o := v.P.(type) {
		case *Set:
			return int64(o.Len()), nil
		case *RangeObj:
			return o.Len(), nil
		}
	}
	return 0, typeErrf("object of type '%s' has no len()", v.TypeName())
}

// formatPercent implements Python's "%" string formatting for the
// directives UDF code uses: %s %r %d %i %f %.Nf %x %%.
func formatPercent(format string, arg data.Value) (data.Value, error) {
	var args []data.Value
	if arg.Kind == data.KindList {
		args = arg.List().Items
	} else {
		args = []data.Value{arg}
	}
	var b strings.Builder
	ai := 0
	nextArg := func() (data.Value, error) {
		if ai >= len(args) {
			return data.Null, typeErrf("not enough arguments for format string")
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(format) {
			return data.Null, valueErrf("incomplete format")
		}
		// Optional precision like %.3f
		prec := -1
		if format[i] == '.' {
			i++
			p := 0
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				p = p*10 + int(format[i]-'0')
				i++
			}
			prec = p
		}
		if i >= len(format) {
			return data.Null, valueErrf("incomplete format")
		}
		switch format[i] {
		case '%':
			b.WriteByte('%')
		case 's':
			v, err := nextArg()
			if err != nil {
				return data.Null, err
			}
			b.WriteString(pyStr(v))
		case 'r':
			v, err := nextArg()
			if err != nil {
				return data.Null, err
			}
			b.WriteString(v.Repr())
		case 'd', 'i':
			v, err := nextArg()
			if err != nil {
				return data.Null, err
			}
			iv, ok := v.AsInt()
			if !ok {
				return data.Null, typeErrf("%%d format: a number is required, not %s", v.TypeName())
			}
			b.WriteString(strconv.FormatInt(iv, 10))
		case 'f':
			v, err := nextArg()
			if err != nil {
				return data.Null, err
			}
			fv, ok := v.AsFloat()
			if !ok {
				return data.Null, typeErrf("%%f format: a number is required, not %s", v.TypeName())
			}
			if prec < 0 {
				prec = 6
			}
			b.WriteString(strconv.FormatFloat(fv, 'f', prec, 64))
		case 'x':
			v, err := nextArg()
			if err != nil {
				return data.Null, err
			}
			iv, _ := v.AsInt()
			b.WriteString(strconv.FormatInt(iv, 16))
		default:
			return data.Null, valueErrf("unsupported format character %q", string(format[i]))
		}
	}
	return data.Str(b.String()), nil
}
