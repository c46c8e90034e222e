package core

// Per-construct inlining-decision tests: one case per PyLite AST shape,
// asserting both the classification verdict (inlinable vs opaque, with
// the exact reason) and the exact engine-expression template the
// translator emits. The NULL-propagation cases are the load-bearing
// ones — PyLite raises TypeError where SQL propagates NULL, so every
// strict operation must be provably non-NULL via the Froid guard idiom
// before it may translate.

import (
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// classifySrc defines a UDF module and classifies the named UDF.
func classifySrc(t *testing.T, src, name string) *inlineInfo {
	t.Helper()
	reg := NewRegistry(0)
	if err := reg.Define(src); err != nil {
		t.Fatalf("define: %v", err)
	}
	u, ok := reg.UDF(name)
	if !ok {
		t.Fatalf("UDF %s not registered", name)
	}
	return classifyUDF(u)
}

func TestInlineClassification(t *testing.T) {
	cases := []struct {
		name string
		src  string
		udf  string
		// want is the exact template rendering when inlinable; empty
		// means the case expects an opaque verdict.
		want string
		// reason is the exact opaque reason (matched verbatim).
		reason string
	}{
		{
			name: "guarded arithmetic straight-line",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return x * 2 + 1
`,
			udf:  "f",
			want: "((x * 2) + 1)",
		},
		{
			name: "unguarded arithmetic is opaque (NULL would TypeError in Python)",
			src: `@scalarudf
def f(x: int) -> int:
    return x * 2
`,
			udf:    "f",
			reason: "* on possibly-None operands",
		},
		{
			name: "is-not-None guard refines the then branch",
			src: `@scalarudf
def f(x: int) -> int:
    if x is not None:
        return x + 10
    return None
`,
			udf:  "f",
			want: "CASE WHEN (x IS NOT NULL) THEN (x + 10) ELSE NULL END",
		},
		{
			name: "truthiness guard proves non-None (truthy implies not None)",
			src: `@scalarudf
def f(x: int) -> int:
    if x:
        return x - 1
    return 0
`,
			udf:  "f",
			want: "CASE WHEN x THEN (x - 1) ELSE 0 END",
		},
		{
			name: "and-guard refines its right operand",
			src: `@scalarudf
def f(x: int) -> bool:
    return x is not None and x > 0
`,
			udf:  "f",
			want: "((x IS NOT NULL) AND (x > 0))",
		},
		{
			name: "or propagates refinement through the false branch",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None or x < 0:
        return 0
    return x
`,
			udf:  "f",
			want: "CASE WHEN ((x IS NULL) OR (x < 0)) THEN 0 ELSE x END",
		},
		{
			name: "unguarded comparison is opaque (None < n raises in Python)",
			src: `@scalarudf
def f(x: int) -> bool:
    return x < 10
`,
			udf:    "f",
			reason: "< on possibly-None operands",
		},
		{
			name: "unguarded equality is opaque (None == n is False in Python, NULL in SQL)",
			src: `@scalarudf
def f(s: str) -> bool:
    return s == "a"
`,
			udf:    "f",
			reason: "== on possibly-None operands",
		},
		{
			name: "chained comparison becomes AND of pairs",
			src: `@scalarudf
def f(x: int) -> bool:
    if x is None:
        return None
    return 0 < x < 10
`,
			udf:  "f",
			want: "CASE WHEN (x IS NULL) THEN NULL ELSE ((0 < x) AND (x < 10)) END",
		},
		{
			name: "mixed-kind ordering is opaque (SQL falls back to text, Python raises)",
			src: `@scalarudf
def f(x: int, s: str) -> bool:
    if x is None or s is None:
        return None
    return x < s
`,
			udf:    "f",
			reason: "< on mixed-kind operands",
		},
		{
			name: "string concat becomes ||",
			src: `@scalarudf
def f(s: str) -> str:
    if s is None:
        return None
    return s + "!"
`,
			udf:  "f",
			want: "(s || '!')",
		},
		{
			name: "strip/lower chain becomes trim+sqllower with Python's cutset",
			src: `@scalarudf
def f(s: str) -> str:
    if s is None:
        return None
    return s.strip().lower()
`,
			udf:  "f",
			want: "sqllower(trim(s, ' \t\n\r'))",
		},
		{
			name: "upper and len",
			src: `@scalarudf
def f(s: str) -> int:
    if s is None:
        return 0
    return len(s.upper())
`,
			udf:  "f",
			want: "CASE WHEN (s IS NULL) THEN 0 ELSE length(sqlupper(s)) END",
		},
		{
			name: "replace is not in the method whitelist",
			src: `@scalarudf
def f(s: str) -> str:
    if s is None:
        return None
    return s.replace(" ", "-")
`,
			udf:    "f",
			reason: "unsupported string method replace",
		},
		{
			name: "abs preserves kind, round(x) casts the integral float to int",
			src: `@scalarudf
def f(x: float) -> int:
    if x is None:
        return None
    return round(abs(x))
`,
			udf:  "f",
			want: "CAST(round(abs(x)) AS int)",
		},
		{
			name: "two-argument round stays float",
			src: `@scalarudf
def f(x: float) -> float:
    if x is None:
        return None
    return round(x, 2)
`,
			udf:  "f",
			want: "round(x, 2)",
		},
		{
			name: "str/int/float casts",
			src: `@scalarudf
def f(x: int) -> str:
    if x is None:
        return None
    return str(x + 1)
`,
			udf:  "f",
			want: "CAST((x + 1) AS string)",
		},
		{
			name: "int() on a string is opaque (CAST parses padded text, Python raises)",
			src: `@scalarudf
def f(s: str) -> int:
    if s is None:
        return None
    return int(s)
`,
			udf:    "f",
			reason: "call to non-inlinable int",
		},
		{
			name: "division needs a nonzero literal divisor and casts through float",
			src: `@scalarudf
def f(x: int) -> float:
    if x is None:
        return None
    return x / 4
`,
			udf:  "f",
			want: "(CAST(x AS float) / 4.0)",
		},
		{
			name: "division by literal zero is opaque (Python raises, SQL yields NULL)",
			src: `@scalarudf
def f(x: int) -> float:
    if x is None:
        return None
    return x / 0
`,
			udf:    "f",
			reason: "/ by literal zero",
		},
		{
			name: "division by a non-literal is opaque (zero divisor diverges)",
			src: `@scalarudf
def f(x: int, y: int) -> float:
    if x is None or y is None:
        return None
    return x / y
`,
			udf:    "f",
			reason: "/ with non-literal divisor",
		},
		{
			name: "unary minus on guarded int",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return -x
`,
			udf:  "f",
			want: "(- x)",
		},
		{
			name: "unary minus on float is opaque (-0.0 renders differently)",
			src: `@scalarudf
def f(x: float) -> float:
    if x is None:
        return None
    return -x
`,
			udf:    "f",
			reason: "unary minus needs a non-None int",
		},
		{
			name: "not translates via the condition path (total on None)",
			src: `@scalarudf
def f(b: bool) -> bool:
    return not b
`,
			udf:  "f",
			want: "(NOT b)",
		},
		{
			name: "assignment and augmented assignment substitute symbolically",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return 0
    y = x * 3
    y += 1
    return y
`,
			udf:  "f",
			want: "CASE WHEN (x IS NULL) THEN 0 ELSE ((x * 3) + 1) END",
		},
		{
			name: "conditional expression (ternary) with guard refinement",
			src: `@scalarudf
def f(x: int) -> int:
    return x + 1 if x is not None else 0
`,
			udf:  "f",
			want: "CASE WHEN (x IS NOT NULL) THEN (x + 1) ELSE 0 END",
		},
		{
			name: "elif ladder tail-duplicates into nested CASE",
			src: `@scalarudf
def f(x: int) -> str:
    if x is None:
        return "none"
    if x < 0:
        return "neg"
    return "pos"
`,
			udf:  "f",
			want: "CASE WHEN (x IS NULL) THEN 'none' ELSE CASE WHEN (x < 0) THEN 'neg' ELSE 'pos' END END",
		},
		{
			name: "fall-off-the-end is implicit return None",
			src: `@scalarudf
def f(x: int) -> int:
    if x is not None:
        return x
`,
			udf:  "f",
			want: "CASE WHEN (x IS NOT NULL) THEN x ELSE NULL END",
		},
		{
			name: "mixed branch kinds are opaque",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return "oops"
    return x
`,
			udf:    "f",
			reason: "branches produce mixed kinds (string vs int)",
		},
		{
			name: "body kind must match the declared return kind",
			src: `@scalarudf
def f(x: int) -> str:
    if x is None:
        return None
    return x + 1
`,
			udf:    "f",
			reason: "body produces int, declared string",
		},
		{
			name: "is-comparison against non-None is opaque",
			src: `@scalarudf
def f(x: int) -> bool:
    return x is 5
`,
			udf:    "f",
			reason: "is-comparison against non-None",
		},
		{
			name: "and/or in value position is opaque (Python yields an operand)",
			src: `@scalarudf
def f(x: int, y: int) -> int:
    if x is None or y is None:
        return None
    return x or y
`,
			udf:    "f",
			reason: "and/or outside a condition",
		},
		{
			name: "loops are vetoed structurally",
			src: `@scalarudf
def f(s: str) -> int:
    n = 0
    while s:
        n += 1
    return n
`,
			udf:    "f",
			reason: "while loop",
		},
		{
			name: "try/except is vetoed structurally",
			src: `@scalarudf
def f(x: int) -> int:
    try:
        return x
    except Exception:
        return 0
`,
			udf:    "f",
			reason: "try/except",
		},
		{
			name: "subscripts are vetoed structurally",
			src: `@scalarudf
def f(s: str) -> str:
    if s is None:
        return None
    return s[0]
`,
			udf:    "f",
			reason: "subscript expression",
		},
		{
			name: "bare call statements are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    print(x)
    return x
`,
			udf:    "f",
			reason: "bare expression statement",
		},
		{
			name: "chained assignment is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    y = z = x
    return y
`,
			udf:    "f",
			reason: "chained assignment",
		},
		{
			name: "subscript assignment is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    d = x
    d[0] = x
    return x
`,
			udf:    "f",
			reason: "assignment to non-name target",
		},
		{
			name: "augmented subscript assignment is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    d = x
    d[0] += 1
    return x
`,
			udf:    "f",
			reason: "augmented assignment to non-name target",
		},
		{
			name: "keyword arguments are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return round(x, ndigits=2)
`,
			udf:    "f",
			reason: "keyword call argument",
		},
		{
			name: "starred arguments are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return abs(*x)
`,
			udf:    "f",
			reason: "starred call argument",
		},
		{
			name: "lambdas are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    g = lambda y: y
    return x
`,
			udf:    "f",
			reason: "lambda expression",
		},
		{
			name: "comprehensions are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return len([c for c in str(x)])
`,
			udf:    "f",
			reason: "comprehension",
		},
		{
			name: "attribute reads are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return x.real
`,
			udf:    "f",
			reason: "attribute access outside a method call",
		},
		{
			name: "container literals are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    return len([x])
`,
			udf:    "f",
			reason: "container literal",
		},
		{
			name: "raise is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    raise ValueError("x")
`,
			udf:    "f",
			reason: "raise statement",
		},
		{
			name: "global is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    global g
    return x
`,
			udf:    "f",
			reason: "global declaration",
		},
		{
			name: "nested defs are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    def g(y):
        return y
    return x
`,
			udf:    "f",
			reason: "nested function definition",
		},
		{
			name: "import is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    import math
    return x
`,
			udf:    "f",
			reason: "import statement",
		},
		{
			name: "del is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    y = x
    del y
    return x
`,
			udf:    "f",
			reason: "del statement",
		},
		{
			name: "assert is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    assert x is not None
    return x
`,
			udf:    "f",
			reason: "assert statement",
		},
		{
			name: "for loops are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    for i in range(3):
        x += i
    return x
`,
			udf:    "f",
			reason: "for loop",
		},
		{
			name: "parameter defaults are vetoed",
			src: `@scalarudf
def f(x: int = 0) -> int:
    return x
`,
			udf:    "f",
			reason: "parameter \"x\" has a default",
		},
		{
			name: "varargs are vetoed",
			src: `@scalarudf
def f(*xs) -> int:
    return 0
`,
			udf:    "f",
			reason: "*xs vararg parameter",
		},
		{
			name: "generator functions are vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    yield x
`,
			udf:    "f",
			reason: "generator function (yield)",
		},
		{
			name: "loop control is vetoed",
			src: `@scalarudf
def f(x: int) -> int:
    if x is None:
        return None
    break
`,
			udf:    "f",
			reason: "loop control statement",
		},
		{
			name: "expand UDFs never inline",
			src: `@expandudf
def f(s: str) -> str:
    for p in s.split("-"):
        yield p
`,
			udf:    "f",
			reason: "not a scalar UDF",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := classifySrc(t, tc.src, tc.udf)
			if tc.want != "" {
				if info.template == nil {
					t.Fatalf("want inlinable, got opaque: %s", info.reason)
				}
				if got := inlineTemplateString(info.template); got != tc.want {
					t.Fatalf("template mismatch:\ngot:  %s\nwant: %s", got, tc.want)
				}
				return
			}
			if info.template != nil {
				t.Fatalf("want opaque (%s), got inlinable: %s",
					tc.reason, inlineTemplateString(info.template))
			}
			if info.reason != tc.reason {
				t.Fatalf("reason mismatch:\ngot:  %s\nwant: %s", info.reason, tc.reason)
			}
		})
	}
}

// TestInlineNodeBudget: a body past the node budget classifies opaque —
// templates expand once per call site, so unbounded bodies would bloat
// every plan.
func TestInlineNodeBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("@scalarudf\ndef f(x: int) -> int:\n    if x is None:\n        return None\n    return x")
	for i := 0; i < inlineNodeBudget; i++ {
		b.WriteString(" + x")
	}
	b.WriteString("\n")
	info := classifySrc(t, b.String(), "f")
	if info.template != nil {
		t.Fatalf("want budget rejection, got inlinable: %s", inlineTemplateString(info.template))
	}
	if info.reason != "body too large to inline" {
		t.Fatalf("reason = %q", info.reason)
	}
}

// TestInlineNativeGoUDFOpaque: Go-native scalar UDFs have no PyLite
// body to translate.
func TestInlineNativeGoUDFOpaque(t *testing.T) {
	u := &ffi.UDF{
		Name: "native", Kind: ffi.Scalar,
		InKinds:  []data.Kind{data.KindInt},
		OutKinds: []data.Kind{data.KindInt},
		GoFn:     func(args []data.Value) (data.Value, error) { return args[0], nil },
	}
	info := classifyUDF(u)
	if info.template != nil || info.reason != "native Go UDF" {
		t.Fatalf("got template=%v reason=%q", info.template, info.reason)
	}
}
