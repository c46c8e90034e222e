package data

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// oracleUnmarshal is the encoding/json decoder UnmarshalJSONValue
// replaced, kept as the differential oracle: decode into an any tree
// with UseNumber, then copy the tree into Values. trailing reports
// non-whitespace after the first value, which this decoder accepted and
// the single-pass one rejects.
func oracleUnmarshal(s string) (v Value, trailing bool, err error) {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, false, err
	}
	rest := s[dec.InputOffset():]
	return fromJSONAny(raw), strings.TrimLeft(rest, " \t\r\n") != "", nil
}

func fromJSONAny(raw any) Value {
	switch x := raw.(type) {
	case bool:
		return Bool(x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return Int(i)
		}
		f, _ := x.Float64()
		return Float(f)
	case string:
		return Str(x)
	case []any:
		items := make([]Value, len(x))
		for i, it := range x {
			items[i] = fromJSONAny(it)
		}
		return NewList(items)
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		d := NewDict()
		for _, k := range keys {
			d.Dict().Set(k, fromJSONAny(x[k]))
		}
		return d
	}
	return Null
}

// sameValue is strict structural identity: same kinds all the way down
// (no 1 == 1.0 == True), same float bits, same dict key order.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindBool, KindInt:
		return a.I == b.I
	case KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case KindString:
		return a.S == b.S
	case KindList:
		al, bl := a.List().Items, b.List().Items
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !sameValue(al[i], bl[i]) {
				return false
			}
		}
		return true
	case KindDict:
		ad, bd := a.Dict(), b.Dict()
		if len(ad.Keys) != len(bd.Keys) {
			return false
		}
		for i, k := range ad.Keys {
			if bd.Keys[i] != k || !sameValue(ad.Vals[i], bd.Vals[i]) {
				return false
			}
			if v, ok := ad.Get(k); !ok || v != ad.Vals[i] {
				return false
			}
		}
		return true
	}
	return true
}

// checkAgainstOracle fails t unless UnmarshalJSONValue(s) equals the
// oracle's value and outcome, trailing data (which it rejects) aside.
func checkAgainstOracle(t *testing.T, s string) {
	t.Helper()
	want, trailing, wantErr := oracleUnmarshal(s)
	got, err := UnmarshalJSONValue(s)
	switch {
	case trailing:
		if err == nil {
			t.Fatalf("%q: trailing data accepted as %v", s, got)
		}
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: error %v, oracle error %v", s, err, wantErr)
	case err == nil && !sameValue(got, want):
		t.Fatalf("%q: got %#v, oracle %#v", s, got, want)
	}
}

var jsonSeeds = []string{
	`9223372036854775807`, `-9223372036854775808`,
	`9223372036854775808`, `-9223372036854775809`,
	`123456789012345678901234567890`, `1` + strings.Repeat("0", 400),
	`1.0`, `1e2`, `1E+2`, `-1.5e-3`, `-0`, `-0.0`, `0`, `1e400`, `1e-400`,
	`01`, `-`, `1.`, `.5`, `1e`, `+1`,
	`"😀"`, `"\ud83d"`, `"\ude00\ud83d"`, `"\ud83dx"`, `"\ud83dA"`,
	`"\ud83d😀"`, `"é\n\t\"\\\/\b\f\r"`, `"\uZZZZ"`, `"\x"`, `"\'"`,
	"\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"caf\xc3\xa9\"", "\"a\tb\"", `"unterminated`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 50) + `1` + strings.Repeat("}", 50),
	`{"a":1,"a":2}`, `{"b":1,"a":2,"b":3,"a":[4]}`, `{"b":1,"a":{"d":[1,2.5,"x"],"c":null}}`,
	`{"k0":0,"k9":9,"k1":1,"k8":8,"k2":2,"k7":7,"k3":3,"k6":6,"k4":4,"k5":5}`,
	`[]`, `{}`, ` [ 1 , [ ] , { } ] `, `[1,]`, `[,1]`, `{"a" 1}`, `{"a":1,}`, `{1:2}`,
	`true`, `false`, `null`, `tru`, `nul`, `truex`, ``, `   `,
	`[1, 2] junk`, `{"a": 1} {}`, `1 2`, `"a" x`,
}

func TestUnmarshalJSONValueMatchesOracle(t *testing.T) {
	for _, s := range jsonSeeds {
		checkAgainstOracle(t, s)
	}
}

func TestUnmarshalJSONValueRejectsTrailingData(t *testing.T) {
	for _, s := range []string{`[1, 2] junk`, `{"a": 1} {}`, `1 2`, `"a"x`, `truex`, `01`} {
		if v, err := UnmarshalJSONValue(s); err == nil {
			t.Errorf("%q decoded to %v, want an extra-data error", s, v)
		}
	}
	if v, err := UnmarshalJSONValue(" [1, 2] \n\t"); err != nil || len(v.List().Items) != 2 {
		t.Errorf("trailing whitespace: %v, %v", v, err)
	}
}

// FuzzJSONLoads is the differential check of the single-pass decoder
// against the encoding/json path it replaced.
func FuzzJSONLoads(f *testing.F) {
	for _, s := range jsonSeeds {
		f.Add(s)
	}
	f.Fuzz(checkAgainstOracle)
}
