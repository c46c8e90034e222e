// Package data defines the dynamic value model and the columnar storage
// primitives shared by the SQL engine substrate, the PyLite UDF runtime,
// and the FFI wrapper layer.
//
// Engine-side data lives in typed Columns (unboxed Go slices). UDF-side
// data lives in boxed Values. Converting between the two is exactly the
// wrapper cost the paper's fusion optimizer eliminates, so the conversion
// is deliberately explicit (see package ffi).
package data

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
	KindDict
	// KindObject carries runtime-specific payloads (PyLite functions,
	// generators, class instances, sets, modules) in Value.P.
	KindObject
)

// String returns the lower-case name of the kind (matches SQL type names
// used by the engine catalog).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindList:
		return "list"
	case KindDict:
		return "dict"
	case KindObject:
		return "object"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromName parses a SQL/decorator type name into a Kind.
func KindFromName(name string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "bool", "boolean":
		return KindBool, nil
	case "int", "integer", "bigint", "int64":
		return KindInt, nil
	case "float", "double", "real", "float64":
		return KindFloat, nil
	case "string", "text", "str", "varchar":
		return KindString, nil
	case "list", "json", "array":
		return KindList, nil
	case "dict", "map", "object":
		return KindDict, nil
	case "null":
		return KindNull, nil
	}
	return KindNull, fmt.Errorf("data: unknown type name %q", name)
}

// Value is a boxed dynamic value. Scalars live inline; lists, dicts and
// runtime objects live behind P. The zero Value is SQL NULL / Python None.
type Value struct {
	Kind Kind
	I    int64   // KindInt payload; KindBool uses 0/1
	F    float64 // KindFloat payload
	S    string  // KindString payload
	P    any     // *List, *Dict, or runtime object
}

// List is the payload of a KindList Value.
type List struct {
	Items []Value
}

// Dict is the payload of a KindDict Value. Keys preserve insertion order
// (like Python dicts) and are unique.
type Dict struct {
	Keys []string
	Vals []Value
	idx  map[string]int
}

// Null is the NULL/None value.
var Null = Value{}

// Bool boxes a bool.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// Int boxes an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float boxes a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str boxes a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// NewList boxes a list of values (the slice is owned by the list).
func NewList(items []Value) Value {
	return Value{Kind: KindList, P: &List{Items: items}}
}

// NewDict creates an empty dict value.
func NewDict() Value {
	return Value{Kind: KindDict, P: &Dict{idx: make(map[string]int)}}
}

// Object boxes a runtime object.
func Object(p any) Value { return Value{Kind: KindObject, P: p} }

// IsNull reports whether v is NULL/None.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool returns the boolean payload (valid when Kind==KindBool).
func (v Value) AsBool() bool { return v.I != 0 }

// List returns the list payload or nil.
func (v Value) List() *List {
	if v.Kind != KindList {
		return nil
	}
	return v.P.(*List)
}

// Dict returns the dict payload or nil.
func (v Value) Dict() *Dict {
	if v.Kind != KindDict {
		return nil
	}
	return v.P.(*Dict)
}

// Get looks up key in the dict.
func (d *Dict) Get(key string) (Value, bool) {
	if d.idx != nil {
		if i, ok := d.idx[key]; ok {
			return d.Vals[i], true
		}
		return Null, false
	}
	for i, k := range d.Keys {
		if k == key {
			return d.Vals[i], true
		}
	}
	return Null, false
}

// Set inserts or updates key in the dict, preserving insertion order.
func (d *Dict) Set(key string, v Value) {
	if d.idx == nil {
		d.idx = make(map[string]int, len(d.Keys)+1)
		for i, k := range d.Keys {
			d.idx[k] = i
		}
	}
	if i, ok := d.idx[key]; ok {
		d.Vals[i] = v
		return
	}
	d.idx[key] = len(d.Keys)
	d.Keys = append(d.Keys, key)
	d.Vals = append(d.Vals, v)
}

// Delete removes key from the dict, returning whether it was present.
func (d *Dict) Delete(key string) bool {
	pos := -1
	for i, k := range d.Keys {
		if k == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	d.Keys = append(d.Keys[:pos], d.Keys[pos+1:]...)
	d.Vals = append(d.Vals[:pos], d.Vals[pos+1:]...)
	d.idx = nil
	return true
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.Keys) }

// Truthy implements Python truthiness: None/0/0.0/""/[]/{} are false.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindNull:
		return false
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	case KindList:
		return len(v.List().Items) > 0
	case KindDict:
		return v.Dict().Len() > 0
	default:
		return v.P != nil
	}
}

// isInt reports whether v holds an int64 payload (ints, and bools as
// 0/1): two such values compare exactly, not through float64.
func (v Value) isInt() bool { return v.Kind == KindInt || v.Kind == KindBool }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// AsInt converts numeric values to int64 (floats truncate toward zero).
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	}
	return 0, false
}

// Equal reports deep equality with Python semantics (1 == 1.0 == True).
func Equal(a, b Value) bool {
	if a.isInt() && b.isInt() {
		return a.I == b.I
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return af == bf
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindString:
		return a.S == b.S
	case KindList:
		al, bl := a.List().Items, b.List().Items
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !Equal(al[i], bl[i]) {
				return false
			}
		}
		return true
	case KindDict:
		ad, bd := a.Dict(), b.Dict()
		if ad.Len() != bd.Len() {
			return false
		}
		for i, k := range ad.Keys {
			bv, ok := bd.Get(k)
			if !ok || !Equal(ad.Vals[i], bv) {
				return false
			}
		}
		return true
	case KindObject:
		return a.P == b.P
	}
	return false
}

// Outranks reports whether v takes the seat cur holds in a MIN (max
// false) or MAX fold, neither being NULL: when it is strictly better. A
// NaN, which Compare orders equal to everything, loses to every other
// value, so MIN and MAX skip it unless nothing else arrives; the fold's
// answer then does not depend on the order of its values, and partial
// folds merge to the serial answer.
func Outranks(v, cur Value, max bool) bool {
	if vn, cn := v.isNaN(), cur.isNaN(); vn || cn {
		return cn && !vn
	}
	c, ok := Compare(v, cur)
	return ok && c != 0 && (c > 0) == max
}

func (v Value) isNaN() bool { return v.Kind == KindFloat && math.IsNaN(v.F) }

// Compare orders two values: -1, 0, +1. Numerics compare numerically;
// strings lexicographically; lists elementwise; NULL sorts first. Returns
// false when the kinds are not comparable.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, true
		case a.IsNull():
			return -1, true
		default:
			return 1, true
		}
	}
	if a.isInt() && b.isInt() {
		return cmp.Compare(a.I, b.I), true
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S), true
	}
	if a.Kind == KindList && b.Kind == KindList {
		al, bl := a.List().Items, b.List().Items
		for i := 0; i < len(al) && i < len(bl); i++ {
			if c, ok := Compare(al[i], bl[i]); !ok {
				return 0, false
			} else if c != 0 {
				return c, true
			}
		}
		switch {
		case len(al) < len(bl):
			return -1, true
		case len(al) > len(bl):
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// SortValues sorts vs in place using Compare; incomparable pairs keep
// their relative order.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool {
		c, ok := Compare(vs[i], vs[j])
		return ok && c < 0
	})
}

// Key returns a canonical string encoding usable as a hash key (for sets,
// dict keys, group-by keys, distinct). Distinct values map to distinct
// keys; 1, 1.0 and True share a key, matching Python hashing.
func (v Value) Key() string {
	var b strings.Builder
	v.appendKey(&b)
	return b.String()
}

func (v Value) appendKey(b *strings.Builder) {
	switch v.Kind {
	case KindNull:
		b.WriteString("n")
	case KindBool, KindInt:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(v.I, 10))
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(int64(v.F), 10))
		} else {
			b.WriteByte('f')
			b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		}
	case KindString:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(v.S)))
		b.WriteByte(':')
		b.WriteString(v.S)
	case KindList:
		b.WriteByte('[')
		for _, it := range v.List().Items {
			it.appendKey(b)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case KindDict:
		d := v.Dict()
		b.WriteByte('{')
		for i, k := range d.Keys {
			b.WriteString(k)
			b.WriteByte('=')
			d.Vals[i].appendKey(b)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "o%p", v.P)
	}
}

// String renders the value in Python-ish repr form.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "None"
	case KindBool:
		if v.I != 0 {
			return "True"
		}
		return "False"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	case KindString:
		return v.S
	case KindList:
		var b strings.Builder
		b.WriteByte('[')
		for i, it := range v.List().Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.Repr())
		}
		b.WriteByte(']')
		return b.String()
	case KindDict:
		d := v.Dict()
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range d.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q: %s", k, d.Vals[i].Repr())
		}
		b.WriteByte('}')
		return b.String()
	default:
		return fmt.Sprintf("<object %T>", v.P)
	}
}

// Repr is like String but quotes strings (Python repr()).
func (v Value) Repr() string {
	if v.Kind == KindString {
		return strconv.Quote(v.S)
	}
	return v.String()
}

// TypeName returns the Python-style type name used in error messages.
func (v Value) TypeName() string {
	switch v.Kind {
	case KindNull:
		return "NoneType"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "str"
	case KindList:
		return "list"
	case KindDict:
		return "dict"
	default:
		return fmt.Sprintf("%T", v.P)
	}
}
