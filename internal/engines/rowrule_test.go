package engines

import (
	"context"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// rowRuleLib holds two generator UDFs with two output columns each, a
// table UDF and an expand UDF. Each yields, by its input key, a full
// list (k = 1), a short list (k = 2) or a scalar (otherwise).
const rowRuleLib = `
@scalarudf
def up(s: str) -> str:
    return s.upper()

@tableudf
def tshape(rows):
    for r in rows:
        if r[0] == 1:
            yield [r[1], r[0]]
        elif r[0] == 2:
            yield [r[1]]
        else:
            yield r[1]

@expandudf
def eshape(k: int, s: str):
    if k == 1:
        yield [s, k]
    elif k == 2:
        yield [s]
    else:
        yield s
`

// rowRuleDB launches a profile over w(k, s) with the rowRuleLib UDFs,
// both generators declared with the output columns (a string, b int).
func rowRuleDB(t *testing.T, prof Profile) *Instance {
	t.Helper()
	in := Launch(Config{Profile: prof, JIT: true})
	if err := in.Define(rowRuleLib); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.UDFSpec{
		{Name: "tshape", Kind: ffi.Table},
		{Name: "eshape", Kind: ffi.Expand, In: []data.Kind{data.KindInt, data.KindString}},
	} {
		spec.Out, spec.OutNames = []data.Kind{data.KindString, data.KindInt}, []string{"a", "b"}
		if err := in.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Eng.Exec("CREATE TABLE w (k int, s string)"); err != nil {
		t.Fatal(err)
	}
	if err := in.Eng.Exec("INSERT INTO w VALUES (1, 'ab cd'), (2, 'ef'), (3, 'gh')"); err != nil {
		t.Fatal(err)
	}
	return in
}

// rowMultiset renders a result as its sorted rows.
func rowMultiset(t *data.Table) []string {
	rows := strings.Split(strings.TrimSuffix(render(t), "\n"), "\n")
	slices.Sort(rows)
	return rows
}

// TestGeneratorRowRule is the oracle for the row rule: a table UDF and
// an expand UDF that yield a full list, a short list and a scalar give
// the same rows natively and fused, on the vector, tuple and process
// transports — a scalar is a one-value row and missing columns are NULL.
// The fused arm must run the generator inside its trace. A select-list
// expand UDF exposes every output column, under its declared name.
func TestGeneratorRowRule(t *testing.T) {
	cases := []struct {
		udf, sql string
		want     []string
	}{
		{"tshape", "SELECT up(a) AS x, b FROM tshape((SELECT k, s FROM w)) AS t",
			[]string{`"AB CD"|1|`, `"EF"|None|`, `"GH"|None|`}},
		{"eshape", "SELECT k, up(a) AS x, b FROM (SELECT k, eshape(k, s) AS e FROM w) AS t",
			[]string{`1|"AB CD"|1|`, `2|"EF"|None|`, `3|"GH"|None|`}},
	}
	for _, prof := range []Profile{Monet, SQLite, Postgres} {
		in := rowRuleDB(t, prof)
		for _, c := range cases {
			nat, err := in.Query(c.sql)
			if err != nil {
				t.Fatalf("%s native %s: %v", prof, c.udf, err)
			}
			fused, rep, err := in.QueryFusedReportedCtx(context.Background(), c.sql)
			if err != nil {
				t.Fatalf("%s fused %s: %v", prof, c.udf, err)
			}
			if rep.Fallback || !strings.Contains(strings.Join(rep.Sources, "\n"), c.udf+"(") {
				t.Fatalf("%s: %s did not run inside a fused trace (fallback %q, sources %q)", prof, c.udf, rep.FallbackReason, rep.Sources)
			}
			if n, f := rowMultiset(nat), rowMultiset(fused); !slices.Equal(n, c.want) || !slices.Equal(f, c.want) {
				t.Errorf("%s %s:\nnative: %q\nfused:  %q\nwant:   %q", prof, c.udf, n, f, c.want)
			}
		}
		in.Close()
	}
}
