package data

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// MarshalJSONValue serializes a Value to JSON text. This is the format
// complex types (lists/dicts) use when stored inside engine columns —
// i.e. the (de)serialization overhead QFusor's wrapper layer removes.
func MarshalJSONValue(v Value) string {
	b, err := json.Marshal(toJSONAny(v))
	if err != nil {
		return "null"
	}
	return string(b)
}

func toJSONAny(v Value) any {
	switch v.Kind {
	case KindNull:
		return nil
	case KindBool:
		return v.I != 0
	case KindInt:
		return v.I
	case KindFloat:
		if math.IsInf(v.F, 0) || math.IsNaN(v.F) {
			return nil
		}
		return v.F
	case KindString:
		return v.S
	case KindList:
		items := v.List().Items
		out := make([]any, len(items))
		for i, it := range items {
			out[i] = toJSONAny(it)
		}
		return out
	case KindDict:
		d := v.Dict()
		out := make(map[string]any, d.Len())
		for i, k := range d.Keys {
			out[k] = toJSONAny(d.Vals[i])
		}
		return out
	default:
		return fmt.Sprintf("%v", v.P)
	}
}

// UnmarshalJSONValue parses JSON text into a Value in one pass, with no
// intermediate tree. An integer literal that fits in int64 becomes an
// Int and every other number a Float; object keys come out sorted, a
// duplicate key keeping its last value; invalid UTF-8 and unpaired
// surrogate escapes decode to U+FFFD. Anything but whitespace after the
// value is an error, like CPython's json.loads ("Extra data").
func UnmarshalJSONValue(s string) (Value, error) {
	d := jsonDecoder{s: s}
	d.skipSpace()
	v, err := d.value(0)
	if err != nil {
		return Null, err
	}
	d.skipSpace()
	if d.i < len(s) {
		return Null, d.errorf("extra data")
	}
	return v, nil
}

// maxJSONDepth bounds array/object nesting (encoding/json's limit, so
// the same documents are accepted as before).
const maxJSONDepth = 10000

// jsonDecoder is a cursor over the JSON text being decoded.
type jsonDecoder struct {
	s string
	i int
}

func (d *jsonDecoder) errorf(what string) error {
	return fmt.Errorf("data: invalid json: %s at offset %d", what, d.i)
}

func (d *jsonDecoder) skipSpace() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// value decodes the value at the cursor; depth counts the enclosing
// arrays and objects.
func (d *jsonDecoder) value(depth int) (Value, error) {
	if d.i >= len(d.s) {
		return Null, d.errorf("unexpected end of input")
	}
	switch c := d.s[d.i]; {
	case c == '[':
		return d.array(depth + 1)
	case c == '{':
		return d.object(depth + 1)
	case c == '"':
		s, err := d.str()
		return Str(s), err
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case d.literal("null"):
		return Null, nil
	case d.literal("true"):
		return Bool(true), nil
	case d.literal("false"):
		return Bool(false), nil
	}
	return Null, d.errorf(fmt.Sprintf("invalid character %q", d.s[d.i]))
}

func (d *jsonDecoder) literal(lit string) bool {
	if strings.HasPrefix(d.s[d.i:], lit) {
		d.i += len(lit)
		return true
	}
	return false
}

// next consumes the separator after a container element: it reports
// whether the container closed with end, and fails on anything but
// ',' or end.
func (d *jsonDecoder) next(end byte) (bool, error) {
	d.skipSpace()
	if d.i >= len(d.s) {
		return false, d.errorf("unexpected end of input")
	}
	switch d.s[d.i] {
	case ',':
		d.i++
		d.skipSpace()
		return false, nil
	case end:
		d.i++
		return true, nil
	}
	return false, d.errorf(fmt.Sprintf("invalid character %q after element", d.s[d.i]))
}

func (d *jsonDecoder) array(depth int) (Value, error) {
	if depth > maxJSONDepth {
		return Null, d.errorf("exceeded max depth")
	}
	d.i++ // '['
	items := []Value{}
	d.skipSpace()
	if d.i < len(d.s) && d.s[d.i] == ']' {
		d.i++
		return NewList(items), nil
	}
	for {
		v, err := d.value(depth)
		if err != nil {
			return Null, err
		}
		items = append(items, v)
		if done, err := d.next(']'); err != nil {
			return Null, err
		} else if done {
			return NewList(items), nil
		}
	}
}

func (d *jsonDecoder) object(depth int) (Value, error) {
	if depth > maxJSONDepth {
		return Null, d.errorf("exceeded max depth")
	}
	d.i++ // '{'
	dict := &Dict{}
	d.skipSpace()
	if d.i < len(d.s) && d.s[d.i] == '}' {
		d.i++
		return Value{Kind: KindDict, P: dict}, nil
	}
	for {
		if d.i >= len(d.s) || d.s[d.i] != '"' {
			return Null, d.errorf("expected object key")
		}
		k, err := d.str()
		if err != nil {
			return Null, err
		}
		d.skipSpace()
		if d.i >= len(d.s) || d.s[d.i] != ':' {
			return Null, d.errorf("expected ':' after object key")
		}
		d.i++
		d.skipSpace()
		v, err := d.value(depth)
		if err != nil {
			return Null, err
		}
		dict.Keys = append(dict.Keys, k)
		dict.Vals = append(dict.Vals, v)
		if done, err := d.next('}'); err != nil {
			return Null, err
		} else if done {
			sortEntries(dict)
			return Value{Kind: KindDict, P: dict}, nil
		}
	}
}

// sortEntries puts a decoded object's entries in key order and keeps
// only the last value of a duplicate key. Small objects (the common
// case) skip the lookup index: Get scans them, and Set builds it on
// first write.
func sortEntries(d *Dict) {
	sort.Stable(entriesByKey{d})
	n := 0
	for i, k := range d.Keys {
		if n > 0 && d.Keys[n-1] == k {
			d.Vals[n-1] = d.Vals[i]
			continue
		}
		d.Keys[n], d.Vals[n] = k, d.Vals[i]
		n++
	}
	d.Keys, d.Vals = d.Keys[:n], d.Vals[:n]
	if n > 8 {
		d.idx = make(map[string]int, n)
		for i, k := range d.Keys {
			d.idx[k] = i
		}
	}
}

type entriesByKey struct{ d *Dict }

func (e entriesByKey) Len() int           { return len(e.d.Keys) }
func (e entriesByKey) Less(i, j int) bool { return e.d.Keys[i] < e.d.Keys[j] }
func (e entriesByKey) Swap(i, j int) {
	e.d.Keys[i], e.d.Keys[j] = e.d.Keys[j], e.d.Keys[i]
	e.d.Vals[i], e.d.Vals[j] = e.d.Vals[j], e.d.Vals[i]
}

// number decodes a JSON number literal.
func (d *jsonDecoder) number() (Value, error) {
	start := d.i
	if d.s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.s) && d.s[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return Null, d.errorf("invalid number")
	}
	integral := true
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		integral = false
		if d.digits() == 0 {
			return Null, d.errorf("invalid number")
		}
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		integral = false
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return Null, d.errorf("invalid number")
		}
	}
	lit := d.s[start:d.i]
	if integral {
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return Int(n), nil
		}
	}
	f, _ := strconv.ParseFloat(lit, 64) // out of range: ±Inf, as before
	return Float(f), nil
}

func (d *jsonDecoder) digits() int {
	start := d.i
	for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// str decodes the string literal at the cursor. A literal with no
// escapes and valid UTF-8 is returned as a substring of the input, with
// no copy.
func (d *jsonDecoder) str() (string, error) {
	d.i++ // opening quote
	start := d.i
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], nil
		case c == '\\':
			return d.strEscaped(start)
		case c < ' ':
			return "", d.errorf("control character in string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.strEscaped(start)
			}
			d.i += size
		}
	}
	return "", d.errorf("unexpected end of input in string")
}

// strEscaped finishes a string literal that needs rewriting (escapes or
// invalid UTF-8); start is the offset just after its opening quote.
func (d *jsonDecoder) strEscaped(start int) (string, error) {
	b := make([]byte, 0, d.i-start+16)
	b = append(b, d.s[start:d.i]...)
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return string(b), nil
		case c == '\\':
			if d.i+1 >= len(d.s) {
				return "", d.errorf("unexpected end of input in string")
			}
			esc := d.s[d.i+1]
			d.i += 2
			switch esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4(d.i)
				if r < 0 {
					return "", d.errorf("invalid \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; an unpaired half is
					// U+FFFD and a following escape stands on its own.
					r2 := rune(-1)
					if d.i+1 < len(d.s) && d.s[d.i] == '\\' && d.s[d.i+1] == 'u' {
						r2 = d.hex4(d.i + 2)
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						r = pair
						d.i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return "", d.errorf("invalid escape in string")
			}
		case c < ' ':
			return "", d.errorf("control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			b = utf8.AppendRune(b, r) // an invalid byte becomes U+FFFD
			d.i += size
		}
	}
	return "", d.errorf("unexpected end of input in string")
}

// hex4 parses the four hex digits at offset i, or returns -1.
func (d *jsonDecoder) hex4(i int) rune {
	if i+4 > len(d.s) {
		return -1
	}
	var r rune
	for j := i; j < i+4; j++ {
		c := d.s[j]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
