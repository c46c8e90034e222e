package pylite

import (
	"strings"
	"testing"

	"qfusor/internal/data"
)

// TestStrSplitTable pins str.split(sep[, maxsplit]) to what it returned
// when it was strings.SplitN(s, sep, maxsplit+1) boxed item by item:
// the same items for every separator, maxsplit, empty string and the
// empty separator (which splits after each UTF-8 sequence, where CPython
// raises). A negative maxsplit other than -1 splits without limit, and
// -1 (SplitN's n == 0) yields an empty list.
func TestStrSplitTable(t *testing.T) {
	ctx := NewInterp().Ctx()
	strs := []string{"", "a", ",", ",,", "a,b,,c", "a,b,c,", ",a", "ab--cd--ef", "----",
		"héllo wörld", "日本,語", "a b  c ", "xyx"}
	seps := []string{",", "--", " ", "", "x", "ab", "日"}
	limits := []int64{-3, -2, -1, 0, 1, 2, 3, 10}
	for _, s := range strs {
		for _, sep := range seps {
			check := func(args []data.Value, want []string) {
				t.Helper()
				got, err := callMethod(ctx, data.Str(s), "split", args, nil)
				if err != nil {
					t.Fatalf("%q.split(%v): %v", s, args, err)
				}
				items := got.List().Items
				if len(items) != len(want) {
					t.Fatalf("%q.split(%v) = %s, want %q", s, args, got.Repr(), want)
				}
				for i, w := range want {
					if items[i].Kind != data.KindString || items[i].S != w {
						t.Fatalf("%q.split(%v) = %s, want %q", s, args, got.Repr(), want)
					}
				}
			}
			check([]data.Value{data.Str(sep)}, strings.SplitN(s, sep, -1))
			for _, n := range limits {
				check([]data.Value{data.Str(sep), data.Int(n)}, strings.SplitN(s, sep, int(n)+1))
			}
		}
	}
	// A few rows spelled out, so the table does not only restate SplitN.
	for _, c := range []struct {
		src  string
		want string
	}{
		{`"a,b,,c".split(",")`, `["a", "b", "", "c"]`},
		{`"a,b,,c".split(",", 1)`, `["a", "b,,c"]`},
		{`"a,b,,c".split(",", 0)`, `["a,b,,c"]`},
		{`"a,b,,c".split(",", -1)`, `[]`},
		{`"a,b,,c".split(",", -2)`, `["a", "b", "", "c"]`},
		{`"".split(",")`, `[""]`},
		{`"héllo".split("")`, `["h", "é", "l", "l", "o"]`},
		{`"héllo".split("", 2)`, `["h", "é", "llo"]`},
		{`"".split("")`, `[]`},
	} {
		v := mustRun(t, "def f():\n    return "+c.src+"\n", "f")
		if v.Repr() != c.want {
			t.Errorf("%s = %s, want %s", c.src, v.Repr(), c.want)
		}
	}
}
