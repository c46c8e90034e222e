package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// dfgFixture builds an engine + plan for DFG tests (internal package:
// white-box access to the algorithms).
func dfgFixture(t *testing.T, sql string) (*sqlengine.Engine, *Segment, *DFG) {
	t.Helper()
	eng := sqlengine.New("t", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
	tbl := data.NewTable("t", data.Schema{
		{Name: "a", Kind: data.KindString},
		{Name: "b", Kind: data.KindString},
		{Name: "c", Kind: data.KindInt},
	})
	_ = tbl.AppendRow(data.Str("x y"), data.Str("p"), data.Int(1))
	_ = tbl.AppendRow(data.Str("z"), data.Str("q"), data.Int(2))
	eng.Catalog.PutTable(tbl)
	reg := NewRegistry(4)
	if err := reg.Define(`
@scalarudf
def u1(s: str) -> str:
    return s.upper()

@scalarudf
def u2(s: str) -> str:
    return s + "!"

@expandudf
def ex(s: str) -> str:
    for w in s.split(" "):
        yield w
`); err != nil {
		t.Fatal(err)
	}
	reg.Attach(eng)
	q, err := eng.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	segs := FindSegments(q.Root)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	g, err := BuildDFG(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return eng, segs[0], g
}

// TestBernsteinEdges: an edge u→v exists iff u.Out ∩ v.In ≠ ∅ and u
// precedes v (Algorithm 1's RAW condition).
func TestBernsteinEdges(t *testing.T) {
	_, _, g := dfgFixture(t, "SELECT u2(u1(a)) AS x, u1(b) AS y, c FROM t WHERE c > 0")
	for vi, v := range g.Nodes {
		preds := map[int]bool{}
		for _, u := range g.Pred[vi] {
			preds[u] = true
		}
		for ui, u := range g.Nodes {
			if ui >= vi {
				continue
			}
			intersects := false
			for _, f := range v.In {
				for _, o := range u.Out {
					if f == o {
						intersects = true
					}
				}
			}
			if intersects != preds[ui] {
				t.Errorf("edge %d->%d: intersects=%v edge=%v\n%s", ui, vi, intersects, preds[ui], g.String())
			}
		}
	}
}

// TestDFGTopoOrderAcyclic: extraction order is topological (every edge
// goes forward), hence acyclic.
func TestDFGTopoOrderAcyclic(t *testing.T) {
	_, _, g := dfgFixture(t, "SELECT ex(u2(u1(a))) AS w, u1(b) AS y FROM t")
	for u := range g.Nodes {
		for _, v := range g.Succ[u] {
			if v <= u {
				t.Fatalf("backward edge %d -> %d", u, v)
			}
		}
	}
}

// TestSectionsNonOverlappingAndOrdered: Algorithm 2's output sections
// never share nodes, and each section lists nodes in topological order.
func TestSectionsNonOverlappingAndOrdered(t *testing.T) {
	_, _, g := dfgFixture(t, "SELECT ex(u2(u1(a))) AS w, u1(b) AS y FROM t")
	secs := DiscoverSections(g, DefaultCostModel())
	seen := map[int]bool{}
	for _, s := range secs {
		last := -1
		for _, n := range s.Nodes {
			if seen[n] {
				t.Fatalf("node %d in two sections", n)
			}
			seen[n] = true
			if n <= last {
				t.Fatalf("section %v not in topo order", s.Nodes)
			}
			last = n
		}
		if s.Gain() <= 0 {
			t.Fatalf("selected section %v with non-positive gain %f", s.Nodes, s.Gain())
		}
	}
}

// TestCSESharesIdenticalCalls: the same UDF over the same column becomes
// one node with Uses == number of call sites.
func TestCSESharesIdenticalCalls(t *testing.T) {
	_, _, g := dfgFixture(t, "SELECT u1(a) AS x, u1(a) AS y, u1(b) AS z FROM t")
	countU1 := 0
	for _, nd := range g.Nodes {
		if nd.Name == "u1" {
			countU1++
			if nd.In[0] == "p-1.c0" && nd.Uses != 2 {
				t.Fatalf("u1(a) Uses = %d, want 2", nd.Uses)
			}
		}
	}
	if countU1 != 2 { // u1(a) shared + u1(b)
		t.Fatalf("u1 nodes = %d, want 2", countU1)
	}
}

// randSQLExpr generates a random UDF-free SQL expression over three
// int/string fields (as DFG field placeholders).
func randSQLExpr(r *rand.Rand, depth int) sqlengine.SQLExpr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return fieldRefExpr("f0") // int
		case 1:
			return fieldRefExpr("f1") // int
		case 2:
			return &sqlengine.Lit{Value: data.Int(int64(r.Intn(20) - 10))}
		default:
			return &sqlengine.Lit{Value: data.Str(string(rune('a' + r.Intn(4))))}
		}
	}
	switch r.Intn(8) {
	case 0:
		ops := []string{"+", "-", "*"}
		return &sqlengine.BinExpr{Op: ops[r.Intn(3)],
			L: randNumExpr(r, depth-1), R: randNumExpr(r, depth-1)}
	case 1:
		ops := []string{"<", "<=", ">", ">=", "=", "!="}
		return &sqlengine.BinExpr{Op: ops[r.Intn(6)],
			L: randNumExpr(r, depth-1), R: randNumExpr(r, depth-1)}
	case 2:
		return &sqlengine.BinExpr{Op: "AND",
			L: randBoolExpr(r, depth-1), R: randBoolExpr(r, depth-1)}
	case 3:
		return &sqlengine.CaseExpr{
			Whens: []sqlengine.SQLExpr{randBoolExpr(r, depth-1)},
			Thens: []sqlengine.SQLExpr{randNumExpr(r, depth-1)},
			Else:  randNumExpr(r, depth-1),
		}
	case 4:
		return &sqlengine.BetweenExpr{E: randNumExpr(r, depth-1),
			Lo: &sqlengine.Lit{Value: data.Int(-5)}, Hi: &sqlengine.Lit{Value: data.Int(5)}}
	case 5:
		return &sqlengine.IsNullExpr{E: randNumExpr(r, depth-1), Not: r.Intn(2) == 0}
	case 6:
		return &sqlengine.InExpr{E: randNumExpr(r, depth-1),
			List: []sqlengine.SQLExpr{
				&sqlengine.Lit{Value: data.Int(1)},
				&sqlengine.Lit{Value: data.Int(3)},
			}}
	default:
		return &sqlengine.UnaryExpr{Op: "NOT", E: randBoolExpr(r, depth-1)}
	}
}

func randNumExpr(r *rand.Rand, depth int) sqlengine.SQLExpr {
	if depth <= 0 || r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			return fieldRefExpr(fmt.Sprintf("f%d", r.Intn(2)))
		}
		return &sqlengine.Lit{Value: data.Int(int64(r.Intn(20) - 10))}
	}
	ops := []string{"+", "-", "*"}
	return &sqlengine.BinExpr{Op: ops[r.Intn(3)],
		L: randNumExpr(r, depth-1), R: randNumExpr(r, depth-1)}
}

func randBoolExpr(r *rand.Rand, depth int) sqlengine.SQLExpr {
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	return &sqlengine.BinExpr{Op: ops[r.Intn(6)],
		L: randNumExpr(r, depth), R: randNumExpr(r, depth)}
}

// TestTranslateMatchesEvalPure: lowering an offloaded relational
// expression into trace registers (constants hoisted into registers,
// fields renamed to registers) computes the same values as the engine's
// pure evaluator over the original — the semantic-preservation
// invariant of §5.3.2.
func TestTranslateMatchesEvalPure(t *testing.T) {
	reg := NewRegistry(0)
	host := &ffi.UDF{Name: "w", Kind: ffi.Table, RT: reg.RT, Fused: true}
	f := func(seed int64, a, b int8) bool {
		r := rand.New(rand.NewSource(seed))
		e := randSQLExpr(r, 3)
		row := []data.Value{data.Int(int64(a)), data.Int(int64(b))}

		// Engine side: EvalPure over the fields as a row.
		direct := sqlengine.RewriteExpr(e, func(x sqlengine.SQLExpr) sqlengine.SQLExpr {
			if f, ok := asFieldRef(x); ok {
				return &sqlengine.ColRef{Name: f, Index: int(f[1] - '0')}
			}
			return x
		})
		want, werr := sqlengine.EvalPure(direct, row)

		// Trace side: the lowered expression run as a one-output trace.
		tg := newTraceGen(2, func(cr *sqlengine.ColRef) (int, error) {
			return int(cr.Name[1] - '0'), nil
		})
		out, err := tg.lower(e)
		if err != nil {
			t.Logf("lower: %v for %s", err, e)
			return false
		}
		tg.t.OutRegs = []int{out}
		kind := want.Kind
		if kind == data.KindNull {
			kind = data.KindInt
		}
		cols, _, gerr := ffi.RunTraceVector(host, ffi.Lower(tg.t, false), []*data.Column{intColumn(a), intColumn(b)}, 1,
			[]string{"o"}, []data.Kind{kind})
		if werr != nil || gerr != nil {
			return (werr == nil) == (gerr == nil)
		}
		if got := cols[0].Get(0); got.Kind != want.Kind || got.String() != want.String() {
			t.Logf("mismatch: eval=%v trace=%v\nexpr: %s\n%s", want, got, e, tg.t.Render("f"))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func intColumn(v int8) *data.Column {
	c := data.NewColumn("c", data.KindInt)
	c.AppendValue(data.Int(int64(v)))
	return c
}

// TestCostMonotonicity: the Table 1 inequality decision is monotone —
// raising wrapper costs can only make offloading more attractive.
func TestCostMonotonicity(t *testing.T) {
	r := &DFGNode{Kind: KRelFilter, Rows: 1000, Sel: 0.5}
	udfs := []*DFGNode{{Kind: KUDFScalar, Rows: 1000, Sel: 1, Uses: 1}}
	base := DefaultCostModel()
	prev := false
	for w := 10.0; w <= 2000; w *= 2 {
		cm := *base
		cm.WIn, cm.WOut = w, w
		dec := cm.ShouldOffload(r, udfs, 1000, 0.5)
		if prev && !dec {
			t.Fatalf("offload decision flipped off as wrapper cost grew (w=%v)", w)
		}
		prev = dec
	}
	if !prev {
		t.Fatal("offload never chosen even at extreme wrapper cost")
	}
}

// TestNullSemanticsInOffloadedFilters: SQL NULL comparisons are false in
// offloaded predicates (matching the engine).
func TestNullSemanticsInOffloadedFilters(t *testing.T) {
	reg := NewRegistry(0)
	host := &ffi.UDF{Name: "w", Kind: ffi.Table, RT: reg.RT, Fused: true}
	x := fieldRefExpr("x")
	pred := &sqlengine.BinExpr{Op: "OR",
		L: &sqlengine.BinExpr{Op: "<", L: x, R: &sqlengine.Lit{Value: data.Int(5)}},
		R: &sqlengine.BinExpr{Op: "=", L: x, R: &sqlengine.Lit{Value: data.Null}}}
	tg := newTraceGen(1, func(*sqlengine.ColRef) (int, error) { return 0, nil })
	if err := tg.filter(pred); err != nil {
		t.Fatal(err)
	}
	tg.t.OutRegs = []int{0}
	in := data.NewColumn("x", data.KindInt)
	in.AppendValue(data.Null)
	in.AppendValue(data.Int(3))
	cols, _, err := ffi.RunTraceVector(host, ffi.Lower(tg.t, false), []*data.Column{in}, 2, []string{"x"}, []data.Kind{data.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Len() != 1 || cols[0].Get(0).I != 3 {
		t.Fatalf("kept %d rows; NULL < 5 or NULL = NULL must be false under SQL semantics", cols[0].Len())
	}
}

var _ = pylite.Parse // keep import for fixture extensions
