package qfusor_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qfusor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// Normalization for EXPLAIN ANALYZE goldens: durations and measured
// costs vary run to run; structure (span tree, phase names,
// section/wrapper listings, row counts, the summary labels) must not.
var (
	reDur       = regexp.MustCompile(`\b[0-9]+(?:\.[0-9]+)?(?:ns|µs|ms|s)\b`)
	rePredicted = regexp.MustCompile(`predicted [0-9]+(?:\.[0-9]+)?`)
	reActual    = regexp.MustCompile(`actual [0-9]+(?:\.[0-9]+)?`)
	reErr       = regexp.MustCompile(`error [0-9]+(?:\.[0-9]+)?%`)
	reTier      = regexp.MustCompile(`tier=[a-z-]+`)
	// Which operator spans carry a morsels= attribute (and its value)
	// depends on the worker count, which follows GOMAXPROCS.
	reMorsels = regexp.MustCompile(`  morsels=[0-9]+`)
)

func normalizeAnalyze(s string) string {
	s = rePredicted.ReplaceAllString(s, "predicted N")
	s = reActual.ReplaceAllString(s, "actual N")
	s = reErr.ReplaceAllString(s, "error N%")
	s = reDur.ReplaceAllString(s, "DUR")
	s = reTier.ReplaceAllString(s, "tier=T")
	s = reMorsels.ReplaceAllString(s, "")
	return s
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test -run TestAnalyzeGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("golden %s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestAnalyzeGoldenColdWarm pins the EXPLAIN ANALYZE rendering for a
// fusing query across the plan-cache state change: the cold run shows
// the full optimizer front-end (plan_probe → dfg_build → discover →
// codegen with a wrapper span → rewrite) and `plancache=miss`; the warm
// run shows a single phase:plancache span and `plancache=hit` — with an
// otherwise identical section count, wrapper listing and plan.
func TestAnalyzeGoldenColdWarm(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	const sql = "SELECT id, slug(slug(title)) AS s FROM notes ORDER BY id"
	cold, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	gotCold := normalizeAnalyze(cold.Render())
	gotWarm := normalizeAnalyze(warm.Render())
	checkGolden(t, "analyze_cold.golden", gotCold)
	checkGolden(t, "analyze_warm.golden", gotWarm)

	// Belt and braces beyond the goldens: the summary line must carry
	// the renamed wrapper-cache label and the plancache outcome.
	if !strings.Contains(gotCold, "plancache=miss") {
		t.Errorf("cold render missing plancache=miss:\n%s", gotCold)
	}
	if !strings.Contains(gotWarm, "plancache=hit") {
		t.Errorf("warm render missing plancache=hit:\n%s", gotWarm)
	}
	for _, g := range []string{gotCold, gotWarm} {
		if !strings.Contains(g, "wrapper_cache_hits=") || strings.Contains(g, " cache_hits=") {
			t.Errorf("summary line label not renamed:\n%s", g)
		}
	}
	// Identical rewritten plan: the cached entry returns the same tree.
	if cold.Plan != warm.Plan {
		t.Errorf("warm plan differs from cold plan\ncold:\n%s\nwarm:\n%s", cold.Plan, warm.Plan)
	}
	if cold.Report.Sections != warm.Report.Sections {
		t.Errorf("section count changed on hit: %d vs %d", cold.Report.Sections, warm.Report.Sections)
	}
}

// TestAnalyzeGoldenInlined pins the EXPLAIN ANALYZE rendering for a
// relationally inlined query (tier=inlined): the cold run shows the
// phase:inline span replacing the whole fusion front-end, the "Inlined
// UDFs" decision table, a rewritten plan with the UDF call replaced by
// its CASE translation, and `plancache=miss`; the warm run replays the
// recorded inlining decision from the plan-cache entry (`plancache=hit`
// with the same decision table and plan).
func TestAnalyzeGoldenInlined(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	if err := db.Define(`
@scalarudf
def boost(x: int) -> int:
    if x is None:
        return None
    return x * 2 + 1
`); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT id, boost(id) AS b FROM notes ORDER BY id"
	cold, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := db.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	// The plan rides along under the render so the golden pins the
	// CASE-translated expression tree, not just the span structure.
	gotCold := normalizeAnalyze(cold.Render() + "\n-- plan --\n" + cold.Plan)
	gotWarm := normalizeAnalyze(warm.Render() + "\n-- plan --\n" + warm.Plan)
	checkGolden(t, "analyze_inline_cold.golden", gotCold)
	checkGolden(t, "analyze_inline_warm.golden", gotWarm)

	// Raw (un-normalized) tier and decision markers.
	for name, a := range map[string]*qfusor.Analysis{"cold": cold, "warm": warm} {
		r := a.Render()
		if !strings.Contains(r, "tier=inlined") {
			t.Errorf("%s render missing tier=inlined:\n%s", name, r)
		}
		if !strings.Contains(r, "inlined=1") {
			t.Errorf("%s render missing inlined=1 summary field:\n%s", name, r)
		}
		if strings.Contains(a.Plan, "boost(") {
			t.Errorf("%s plan still calls the UDF:\n%s", name, a.Plan)
		}
		// The NULL guard is dropped: boost's body is NULL-strict in x, so
		// the translation is the bare arithmetic, no CASE wrapper.
		if !strings.Contains(a.Plan, "((id * 2) + 1)") {
			t.Errorf("%s plan lost the inlined arithmetic translation:\n%s", name, a.Plan)
		}
		if strings.Contains(a.Plan, "CASE WHEN") {
			t.Errorf("%s plan kept a redundant NULL guard:\n%s", name, a.Plan)
		}
	}
	if !strings.Contains(normalizeAnalyze(cold.Render()), "plancache=miss") {
		t.Errorf("cold render missing plancache=miss")
	}
	if !strings.Contains(normalizeAnalyze(warm.Render()), "plancache=hit") {
		t.Errorf("warm render missing plancache=hit (inlining decision not replayed)")
	}
	if cold.Plan != warm.Plan {
		t.Errorf("warm plan differs from cold plan\ncold:\n%s\nwarm:\n%s", cold.Plan, warm.Plan)
	}
}

// TestAnalyzeGoldenNonUDF pins the rendering for a query that never
// enters the fusion front-end: plancache=none, no optimizer phases
// beyond the probe.
func TestAnalyzeGoldenNonUDF(t *testing.T) {
	db := openTestDB(t, qfusor.MonetDB)
	a, err := db.QueryAnalyze("SELECT id, title FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeAnalyze(a.Render())
	checkGolden(t, "analyze_nonudf.golden", got)
	if !strings.Contains(got, "plancache=none") {
		t.Errorf("non-UDF render missing plancache=none:\n%s", got)
	}
}
