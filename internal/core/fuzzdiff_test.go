package core_test

// Differential fuzz harness for the plan-decision cache and the fused
// execution tiers: every generated UDF-bearing query is executed six
// ways — engine-native (no fusion), fused on the closure tier, fused on
// the VM tier (cold, warm from the plan cache, and with every third UDF
// call force-bailed to the closure tier), relationally inlined
// (tier=inlined), inlined-with-forced-opaque-fallback (the inline
// pass classifies but every site falls back to the fusion ladder), and
// scalar-chain fusion only (the YeSQL mode) — and all arms must be
// bit-identical. The generator is a tiny grammar over the test UDFs:
// opaque ones (scalar slug, expand pieces, aggregate longest, table
// words) and guarded inlinable ones (clip, shout, score) whose bodies
// exercise CASE-producing conditionals, string builtins and NULL-guard
// refinements. Any byte string maps to a valid deterministic query; go
// test runs the seed corpus, `go test -fuzz FuzzDiff` explores beyond
// it. Every query runs on three engine profiles, each with a fixture of
// its own: monetdb (columnar executor, vectorized transport), sqlite
// (row executor, per-tuple calls) and postgresql (row executor, process
// transport). A fused arm that fell back to the native plan fails the
// check: the arms must agree because the fused plan ran, not because
// it was abandoned.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/ffi"
)

// diffFixture is one profile's process-wide instance the harness
// queries. Shared across fuzz iterations (launching an engine per input
// would dominate runtime); diffMu serializes iterations so purge/lookup
// accounting stays coherent. Never closed: the process transport's
// workers are goroutines, so they end with the test binary.
type diffFixture struct {
	once sync.Once
	inst *engines.Instance
	err  error
}

var (
	// diffProfiles is the oracle's profile axis.
	diffProfiles = []engines.Profile{engines.Monet, engines.SQLite, engines.Postgres}
	diffFixtures = map[engines.Profile]*diffFixture{}
	diffMu       sync.Mutex
)

func init() {
	for _, p := range diffProfiles {
		diffFixtures[p] = &diffFixture{}
	}
}

const diffUDFs = `
@scalarudf
def slug(s: str) -> str:
    return s.strip().lower().replace(" ", "-")

@expandudf
def pieces(s: str) -> str:
    for p in s.split("-"):
        yield p

@aggregateudf
class longest:
    def init(self):
        self.best = ""
    def step(self, s):
        if s is not None and len(s) > len(self.best):
            self.best = s
    def final(self):
        return self.best

@tableudf
def words(rows):
    for r in rows:
        for w in r[1].split(" "):
            if w != "":
                yield [r[0], w]

@tableudf
def tshape(rows):
    for r in rows:
        if r[0] % 3 == 0:
            yield [r[1], r[0]]
        elif r[0] % 3 == 1:
            yield [r[1]]
        else:
            yield r[1]

@expandudf
def eshape(k: int, s: str):
    if k % 3 == 0:
        yield [s, k]
    elif k % 3 == 1:
        yield [s]
    else:
        yield s

@scalarudf
def clip(x: int) -> int:
    if x is None:
        return None
    if x > 3:
        return 3
    return x

@scalarudf
def shout(s: str) -> str:
    if s is None:
        return ""
    return s.strip().upper()

@scalarudf
def score(x: int) -> float:
    if x is None or x < 0:
        return 0.0
    return round(x * 7 / 2, 1)
`

// diffDB returns the profile's fixture, launching it on first use.
func diffDB(t *testing.T, prof engines.Profile) *engines.Instance {
	t.Helper()
	fx := diffFixtures[prof]
	fx.once.Do(func() { fx.inst, fx.err = newDiffDB(prof) })
	if fx.err != nil {
		t.Fatalf("diff fixture %s: %v", prof, fx.err)
	}
	return fx.inst
}

// newDiffDB launches one profile's fixture: the test UDFs and the notes
// and vals tables.
func newDiffDB(prof engines.Profile) (*engines.Instance, error) {
	in := engines.Launch(engines.Config{Profile: prof, JIT: true})
	if err := in.Define(diffUDFs); err != nil {
		return nil, err
	}
	// words yields (id, word) rows, named like the notes columns so
	// every notes scalar applies to its output.
	if err := in.Register(core.UDFSpec{Name: "words", Kind: ffi.Table,
		Out:      []data.Kind{data.KindInt, data.KindString},
		OutNames: []string{"id", "title"}}); err != nil {
		return nil, err
	}
	// tshape and eshape have two output columns and yield, by key, a
	// full list, a short list or a scalar: the row rule's three cases.
	if err := in.Register(core.UDFSpec{Name: "tshape", Kind: ffi.Table,
		Out:      []data.Kind{data.KindString, data.KindInt},
		OutNames: []string{"title", "id"}}); err != nil {
		return nil, err
	}
	if err := in.Register(core.UDFSpec{Name: "eshape", Kind: ffi.Expand,
		In:       []data.Kind{data.KindInt, data.KindString},
		Out:      []data.Kind{data.KindString, data.KindInt},
		OutNames: []string{"p", "n"}}); err != nil {
		return nil, err
	}
	if err := in.Eng.Exec("CREATE TABLE notes (id int, title string)"); err != nil {
		return nil, err
	}
	if err := in.Eng.Exec(`INSERT INTO notes VALUES
		(1, '  Hello World  '), (2, 'Go Databases'), (3, 'Query Fusion Rocks'),
		(4, 'a'), (5, 'UDF queries in SQL engines'), (6, 'Plan Cache Hit')`); err != nil {
		return nil, err
	}
	// vals carries NULLs in both value columns so the inlined arms'
	// NULL-guard CASE translations face real NULL inputs.
	if err := in.Eng.Exec("CREATE TABLE vals (k int, v int, s string)"); err != nil {
		return nil, err
	}
	if err := in.Eng.Exec(`INSERT INTO vals VALUES
		(1, 1, '  alpha  '), (2, NULL, 'beta'), (3, -4, NULL),
		(4, 7, '  Gamma Ray'), (5, 0, ''), (6, 42, ' mixed Case '),
		(7, 3, 'BETA')`); err != nil {
		return nil, err
	}
	return in, nil
}

// Grammar dimensions. Every combination is a valid query, so arbitrary
// fuzz bytes always decode to something executable.
var (
	diffScalars = []string{
		"slug(title)",
		"slug(slug(title))",
		"slug(slug(slug(title)))",
		// Engine arithmetic inside a chain: integer division and a
		// modulo with negative operands.
		"slug(slug(title) || ((id - 4) % 3) || (id / 4))",
	}
	diffPreds = []string{
		"",
		" WHERE id > 1",
		" WHERE id < 5",
		" WHERE slug(title) = 'go-databases'",
	}
	// Inline-tier dimensions over vals: guarded inlinable scalars (CASE
	// conditionals, string builtins, arithmetic/round/division) alone,
	// nested, and feeding opaque UDFs (partial inlining).
	diffVScalars = []string{
		"clip(v)",
		"shout(s)",
		"shout(shout(s))",
		"slug(shout(s))",
		"score(clip(v))",
	}
	diffVPreds = []string{
		"",
		" WHERE k > 2",
		" WHERE clip(v) = 3",
		" WHERE shout(s) = 'BETA'",
	}
)

const (
	diffNumShapes = 16
	// DiffSeedSpace is the exhaustive seed count TestDiffSeeds covers:
	// shapes 0-5 and 8-15 draw from the notes dimensions, shapes 6-7
	// from the vals (inline-tier) dimensions.
	diffSeedSpace = 14*4*4 + 2*5*4
)

// diffInlineShape reports whether a shape draws from the vals
// dimensions.
func diffInlineShape(shape int) bool { return shape == 6 || shape == 7 }

// buildDiffQuery maps fuzz bytes to a deterministic UDF query. Missing
// bytes read as zero, so short inputs are valid too.
func buildDiffQuery(dat []byte) string {
	pick := func(i, n int) int {
		if i < len(dat) {
			return int(dat[i]) % n
		}
		return 0
	}
	scalar := diffScalars[pick(1, len(diffScalars))]
	pred := diffPreds[pick(2, len(diffPreds))]
	vscalar := diffVScalars[pick(1, len(diffVScalars))]
	vpred := diffVPreds[pick(2, len(diffVPreds))]
	switch pick(0, diffNumShapes) {
	case 0:
		return fmt.Sprintf("SELECT id, %s AS s FROM notes%s ORDER BY id", scalar, pred)
	case 1:
		return fmt.Sprintf("SELECT longest(%s) AS l FROM notes%s", scalar, pred)
	case 2:
		return fmt.Sprintf("SELECT p FROM (SELECT pieces(%s) AS p FROM notes%s) AS x ORDER BY p", scalar, pred)
	case 3:
		return fmt.Sprintf("SELECT longest(p) AS l FROM (SELECT pieces(%s) AS p FROM notes%s) AS x", scalar, pred)
	case 4:
		// Grouped aggregation over a UDF key: the trace yields the key and
		// the aggregates' arguments, and the engine folds a native and a
		// UDF aggregate over them — the VM-tier fused-aggregate path.
		return fmt.Sprintf("SELECT s, COUNT(*) AS n, longest(s) AS l FROM (SELECT %s AS s FROM notes%s) AS x GROUP BY s ORDER BY s", scalar, pred)
	case 5:
		return fmt.Sprintf("SELECT id, %s AS a, slug(title) AS b FROM notes%s ORDER BY id", scalar, pred)
	case 6:
		// Inline-tier projection over NULL-bearing columns.
		return fmt.Sprintf("SELECT k, %s AS a FROM vals%s ORDER BY k", vscalar, vpred)
	case 8:
		// A FROM-position table UDF at the bottom of the section: it is
		// the source of the fused trace.
		return fmt.Sprintf("SELECT id, %s AS s FROM words((SELECT id, title FROM notes%s)) AS w ORDER BY id, s", scalar, pred)
	case 9:
		// A join above the section reads two of its four columns: the
		// section's input and the DFG come from a pruned plan.
		return fmt.Sprintf("SELECT x.id, x.s FROM (SELECT id, %s AS s FROM notes%s) AS x JOIN notes AS m ON x.id = m.id ORDER BY x.id", scalar, pred)
	case 10:
		// The same join read by nothing but COUNT(*): the dead UDF output
		// is still evaluated.
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM (SELECT id, %s AS s FROM notes%s) AS x JOIN notes AS m ON x.id = m.id", scalar, pred)
	case 11:
		// A two-column table UDF whose rows are full lists, short lists
		// and scalars: id is NULL where a row has no second item, and
		// reads 0 here, so no scalar meets a NULL.
		return fmt.Sprintf("SELECT id, %s AS s FROM (SELECT title, coalesce(id, 0) AS id FROM tshape((SELECT id, title FROM notes%s)) AS t0) AS t ORDER BY id, s", scalar, pred)
	case 12:
		// The same three row shapes from a two-column expand UDF, which
		// exposes both of its columns.
		return fmt.Sprintf("SELECT p, n FROM (SELECT eshape(id, %s) AS e FROM notes%s) AS x ORDER BY p, n", scalar, pred)
	case 13:
		// A DISTINCT over a UDF projection of every note twice: a
		// group-by with no aggregates, which the engine folds from the
		// rows the wrapper yields.
		return fmt.Sprintf("SELECT DISTINCT %s AS s FROM (SELECT id, title FROM notes UNION ALL SELECT id, title FROM notes) AS u%s ORDER BY s", scalar, pred)
	case 14:
		// An expand UDF above a DISTINCT: every piece of every distinct
		// value is kept.
		return fmt.Sprintf("SELECT p FROM (SELECT pieces(s) AS p FROM (SELECT DISTINCT %s AS s FROM notes%s) AS d) AS x ORDER BY p", scalar, pred)
	case 15:
		// A UNION of two UDF projections: a dedup over their
		// concatenation.
		return fmt.Sprintf("SELECT %s AS s FROM notes%s UNION SELECT slug(title) AS s FROM notes ORDER BY s", scalar, pred)
	default:
		// Inlinable scalar feeding an opaque aggregate: the argument
		// inlines while the aggregate stays on the fusion ladder.
		return fmt.Sprintf("SELECT longest(shout(s)) AS l, COUNT(*) AS n FROM (SELECT s, %s AS a FROM vals%s) AS x", vscalar, vpred)
	}
}

// renderTable flattens a result to a comparable string: schema header
// then every cell via the value formatter (bit-identical comparison).
func renderTable(t *data.Table) string {
	var b strings.Builder
	for i, f := range t.Schema {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s", f.Name, f.Kind)
	}
	b.WriteByte('\n')
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteByte('|')
			}
			if c.IsNull(r) {
				b.WriteString("<null>")
			} else {
				b.WriteString(c.Get(r).String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runDiff executes one differential check, six ways: native, fused on
// the closure tier, fused on the VM tier (cold, warm from the plan
// cache, and with forced per-call bailouts), relationally inlined,
// inlined with the forced-opaque fallback hook, and scalar-chain fusion
// only, on one profile's fixture. All arms must agree exactly, and no
// fused arm may fall back to the native plan.
func runDiff(t *testing.T, prof engines.Profile, dat []byte) {
	in := diffDB(t, prof)
	sql := buildDiffQuery(dat)
	var fellBack []string
	queryFused := func(arm string) (*data.Table, error) {
		res, rep, err := in.QueryFusedReportedCtx(context.Background(), sql)
		if rep != nil && rep.Fallback {
			fellBack = append(fellBack, fmt.Sprintf("%s: %s", arm, rep.FallbackReason))
		}
		return res, err
	}
	diffMu.Lock()
	defer diffMu.Unlock()
	defer func() {
		in.QF.Opts.Tier = "auto"
		in.QF.Opts.ScalarOnly = false
		ffi.SetVMBailEvery(0)
		core.SetInlineForceOpaque(false)
	}()

	nat, nerr := in.Query(sql)

	// Arm 2: closure tier pinned.
	in.QF.Opts.Tier = "closure"
	in.QF.PlanCache.Purge()
	clo, cloErr := queryFused("closure")

	// Arms 3+4: VM tier pinned, cold then warm (plan-cache hit).
	in.QF.Opts.Tier = "vm"
	in.QF.PlanCache.Purge()
	s0 := in.QF.PlanCache.Stats()
	cold, cerr := queryFused("vm-cold")
	warm, werr := queryFused("vm-warm")

	// Arm 5: VM tier with every 3rd VM call force-bailed to the closure
	// tier — exercises the bailout protocol on rows that would stay on
	// the VM otherwise.
	ffi.SetVMBailEvery(3)
	bailed, berr := queryFused("vm-bailout")
	ffi.SetVMBailEvery(0)

	// Arm 6: relational inlining at the default tier — inlinable call
	// sites substitute into engine expressions; fully inlined queries
	// skip fusion discovery entirely (tier=inlined).
	in.QF.Opts.Tier = "auto"
	in.QF.PlanCache.Purge()
	inl, ierr := queryFused("inlined")

	// Arm 7: the forced-opaque fallback hook — the inline pass still
	// classifies every UDF but applies no substitution, so the query
	// takes the VM/closure ladder it would have taken pre-inlining.
	core.SetInlineForceOpaque(true)
	in.QF.PlanCache.Purge()
	fop, ferr := queryFused("inline-opaque")
	core.SetInlineForceOpaque(false)

	// Arm 8: scalar-chain fusion only (the YeSQL mode) — every chain of
	// two or more scalar UDFs becomes one wrapper; the plan keeps its
	// shape.
	in.QF.Opts.Tier = "auto"
	in.QF.Opts.ScalarOnly = true
	in.QF.PlanCache.Purge()
	yes, yerr := queryFused("scalar-only")
	in.QF.Opts.ScalarOnly = false

	if nerr != nil || cloErr != nil || cerr != nil || werr != nil || berr != nil || ierr != nil || ferr != nil || yerr != nil {
		if nerr != nil && cloErr != nil && cerr != nil && werr != nil && berr != nil && ierr != nil && ferr != nil && yerr != nil {
			return // all arms agree the query fails
		}
		t.Fatalf("%s: error disagreement for %q:\n native:        %v\n closure:       %v\n vm-cold:       %v\n vm-warm:       %v\n vm-bailout:    %v\n inlined:       %v\n inline-opaque: %v\n scalar-only:   %v",
			prof, sql, nerr, cloErr, cerr, werr, berr, ierr, ferr, yerr)
	}
	if len(fellBack) > 0 {
		t.Fatalf("%s: fused arms of %q fell back to native:\n %s", prof, sql, strings.Join(fellBack, "\n "))
	}
	want := renderTable(nat)
	if got := renderTable(clo); got != want {
		t.Fatalf("%s: fused-closure mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(cold); got != want {
		t.Fatalf("%s: fused-vm-cold mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(warm); got != want {
		t.Fatalf("%s: fused-vm-warm mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(bailed); got != want {
		t.Fatalf("%s: fused-vm-bailout mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(inl); got != want {
		t.Fatalf("%s: inlined mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(fop); got != want {
		t.Fatalf("%s: inline-forced-opaque mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	if got := renderTable(yes); got != want {
		t.Fatalf("%s: scalar-only mismatch for %q:\ngot:\n%s\nwant:\n%s", prof, sql, got, want)
	}
	s1 := in.QF.PlanCache.Stats()
	if s1.Hits <= s0.Hits {
		t.Fatalf("%s: warm run of %q was not served from the plan cache (stats %+v -> %+v)",
			prof, sql, s0, s1)
	}
}

// FuzzDiff is the fuzz entry point: every input runs on every profile.
// The seed corpus spans every shape and most predicate/scalar
// combinations; fuzzing mutates beyond it.
func FuzzDiff(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0}, {0, 2, 3}, {1, 1, 0}, {1, 2, 1}, {2, 0, 2},
		{2, 1, 3}, {3, 2, 0}, {3, 0, 1}, {4, 1, 2}, {4, 2, 3},
		{6, 0, 0}, {6, 1, 2}, {6, 2, 3}, {6, 3, 1}, {6, 4, 2},
		{7, 0, 0}, {7, 2, 2}, {7, 4, 3},
		{0, 3, 0}, {0, 3, 1}, {1, 3, 2}, {2, 3, 3}, {5, 3, 0},
		{8, 0, 0}, {8, 1, 1}, {8, 2, 2}, {8, 3, 3},
		{9, 0, 0}, {9, 1, 3}, {9, 3, 1}, {10, 0, 0}, {10, 2, 3}, {10, 3, 2},
		{11, 0, 0}, {11, 3, 1}, {12, 0, 0}, {12, 3, 2},
		{13, 0, 0}, {13, 3, 1}, {14, 0, 0}, {14, 1, 3}, {15, 0, 2}, {15, 3, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, dat []byte) {
		for _, prof := range diffProfiles {
			runDiff(t, prof, dat)
		}
	})
}

// TestDiffSeeds exhaustively covers the generator's whole space (every
// shape x scalar x predicate, with shapes 6-7 drawing from the
// inline-tier dimensions) on every profile, so plain `go test` already
// checks every distinct query without the fuzz engine.
func TestDiffSeeds(t *testing.T) {
	for _, prof := range diffProfiles {
		t.Run(string(prof), func(t *testing.T) {
			n := 0
			for shape := 0; shape < diffNumShapes; shape++ {
				nsc, npr := len(diffScalars), len(diffPreds)
				if diffInlineShape(shape) {
					nsc, npr = len(diffVScalars), len(diffVPreds)
				}
				for sc := 0; sc < nsc; sc++ {
					for pr := 0; pr < npr; pr++ {
						runDiff(t, prof, []byte{byte(shape), byte(sc), byte(pr)})
						n++
					}
				}
			}
			if n != diffSeedSpace {
				t.Fatalf("covered %d seeds, want %d", n, diffSeedSpace)
			}
		})
	}
}

// TestDiffWarmConcurrent hammers one cached plan from many goroutines
// (meaningful under -race): concurrent executions share the cached
// *sqlengine.Query, so any plan-tree mutation by an executor — or any
// unsynchronized cache bookkeeping — trips the detector.
func TestDiffWarmConcurrent(t *testing.T) {
	in := diffDB(t, engines.Monet)
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	diffMu.Lock()
	defer diffMu.Unlock()
	nat, err := in.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTable(nat)
	if _, err := in.QueryFused(sql); err != nil { // prime the cache
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				res, err := in.QueryFused(sql)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderTable(res); got != want {
					t.Errorf("concurrent warm mismatch:\ngot:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
