package core_test

// Integration tests for the relational-inlining tier: a fully inlined
// query must produce engine-native results while performing zero FFI
// calls, never touching the wrapper cache or arming the UDF breaker —
// even when the engine side fails mid-query. Plus plan-cache replay of
// the inlining decision and the epoch fence on UDF redefinition.

import (
	"context"
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/engines"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
)

const inlineTestUDFs = `
@scalarudf
def boost(x: int) -> int:
    if x is None:
        return None
    return x * 2 + 1

@scalarudf
def shout(s: str) -> str:
    if s is None:
        return None
    return s.strip().upper()
`

// inlineTestDB launches a fresh Monet instance with guarded, inlinable
// UDFs over a small table that includes NULLs in both columns.
func inlineTestDB(t *testing.T) *engines.Instance {
	t.Helper()
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	if err := in.Define(inlineTestUDFs); err != nil {
		t.Fatal(err)
	}
	if err := in.Eng.Exec("CREATE TABLE nums (id int, n int, s string)"); err != nil {
		t.Fatal(err)
	}
	if err := in.Eng.Exec(`INSERT INTO nums VALUES
		(1, 10, '  alpha  '), (2, NULL, 'beta'), (3, -4, NULL),
		(4, 7, 'Gamma Ray'), (5, 0, '')`); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestInlinedQueryZeroFFI is the tier's core regression contract: an
// inlined query performs zero FFI calls (ledger counter and the source
// UDF's call stats both stay at zero) and never arms the UDF breaker —
// including after an induced engine-side error, which on the fusion
// ladder would count against a wrapper's circuit.
func TestInlinedQueryZeroFFI(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	in := inlineTestDB(t)
	const sql = "SELECT id, boost(n) AS b, shout(s) AS u FROM nums ORDER BY id"

	native, err := in.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	boost, ok := in.Eng.Catalog.UDF("boost")
	if !ok {
		t.Fatal("boost not in catalog")
	}
	stats0 := boost.Stats.Snapshot()
	breaker0 := in.QF.Breaker.Snapshot()

	q, rep, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.HasUDF() {
		t.Fatalf("rewritten query still references UDFs:\n%s", q.Explain())
	}
	sites := 0
	for _, d := range rep.Inlined {
		sites += d.Sites
	}
	if sites != 2 {
		t.Fatalf("want 2 inlined sites, got %d (%+v)", sites, rep.Inlined)
	}
	wantTier := false
	for _, tier := range rep.Tiers {
		if tier == "inlined" {
			wantTier = true
		}
	}
	if !wantTier {
		t.Fatalf("tier=inlined missing from report tiers %v", rep.Tiers)
	}

	led := obs.NewLedger()
	ctx := obs.ContextWithLedger(context.Background(), led)
	res, err := in.Eng.ExecuteCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTable(res), renderTable(native); got != want {
		t.Fatalf("inlined result diverges from native:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := led.Snapshot().FFICalls; n != 0 {
		t.Fatalf("inlined query crossed the FFI %d times", n)
	}
	if d := boost.Stats.Snapshot().Sub(stats0); d.Calls != 0 || d.InRows != 0 {
		t.Fatalf("inlined query invoked the source UDF: %+v", d)
	}

	// Induced engine-side failure: the error must surface without a
	// single FFI call and without touching any breaker circuit.
	if err := faultinject.Enable("morsel.worker", faultinject.Spec{
		Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	led2 := obs.NewLedger()
	_, err = in.Eng.ExecuteCtx(obs.ContextWithLedger(context.Background(), led2), q)
	faultinject.Reset()
	if err == nil {
		t.Fatal("injected morsel fault did not surface")
	}
	if n := led2.Snapshot().FFICalls; n != 0 {
		t.Fatalf("failed inlined query crossed the FFI %d times", n)
	}
	if d := boost.Stats.Snapshot().Sub(stats0); d.Calls != 0 {
		t.Fatalf("failed inlined query invoked the source UDF: %+v", d)
	}
	if b := in.QF.Breaker.Snapshot(); b != breaker0 {
		t.Fatalf("inlined query touched the breaker: %+v -> %+v", breaker0, b)
	}
}

// TestInlinePlanCacheReplay: a warm query replays the recorded inlining
// decision from the plan cache instead of re-running the pass.
func TestInlinePlanCacheReplay(t *testing.T) {
	in := inlineTestDB(t)
	const sql = "SELECT id, boost(n) AS b FROM nums ORDER BY id"

	_, cold, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCache != "miss" {
		t.Fatalf("cold run plancache = %q", cold.PlanCache)
	}
	_, warm, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PlanCache != "hit" {
		t.Fatalf("warm run plancache = %q", warm.PlanCache)
	}
	if len(warm.Inlined) != len(cold.Inlined) || len(warm.Inlined) == 0 {
		t.Fatalf("inline decisions not replayed: cold=%+v warm=%+v",
			cold.Inlined, warm.Inlined)
	}
	for i := range warm.Inlined {
		if warm.Inlined[i] != cold.Inlined[i] {
			t.Fatalf("decision %d diverged on replay: %+v vs %+v",
				i, cold.Inlined[i], warm.Inlined[i])
		}
	}
}

// TestInlineEpochFence: redefining a UDF flushes its cached inlining
// classification exactly like the closure/VM compile caches, so a body
// swap to a non-inlinable form immediately routes the query back onto
// the fusion ladder with correct results.
func TestInlineEpochFence(t *testing.T) {
	in := inlineTestDB(t)
	const sql = "SELECT id, boost(n) AS b FROM nums ORDER BY id"

	res1, err := in.QueryFused(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTable(res1)

	// Same semantics, but the loop makes it structurally opaque.
	if err := in.Define(`
@scalarudf
def boost(x: int) -> int:
    if x is None:
        return None
    acc = x
    i = 0
    while i < 1:
        acc = acc * 2 + 1
        i = i + 1
    return acc
`); err != nil {
		t.Fatal(err)
	}
	_, rep, err := in.QF.Process(in.Eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	var d *core.InlineDecision
	for i := range rep.Inlined {
		if rep.Inlined[i].UDF == "boost" {
			d = &rep.Inlined[i]
		}
	}
	if d == nil || d.Inlinable {
		t.Fatalf("redefined boost still classified inlinable: %+v", rep.Inlined)
	}
	if !strings.Contains(d.Reason, "while loop") {
		t.Fatalf("unexpected opacity reason %q", d.Reason)
	}
	res2, err := in.QueryFused(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTable(res2); got != want {
		t.Fatalf("post-redefinition result diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestInlineTypedSubstitution: a site is substituted only when the
// substituted expression has the kind the binder gave the call. twice's
// template x * 2 is float over a float argument, but over a NULL literal
// it types as an int, so that site keeps its call — with the same rows.
func TestInlineTypedSubstitution(t *testing.T) {
	in := inlineTestDB(t)
	if err := in.Define(`
@scalarudf
def twice(x: float) -> float:
    if x is None:
        return None
    return x * 2
`); err != nil {
		t.Fatal(err)
	}
	for sql, sites := range map[string]int{
		"SELECT id, twice(CAST(n AS float)) AS v FROM nums ORDER BY id": 1,
		"SELECT id, twice(NULL) AS v FROM nums ORDER BY id":             0,
	} {
		_, rep, err := in.QF.Process(in.Eng, sql)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, d := range rep.Inlined {
			got += d.Sites
		}
		if got != sites {
			t.Errorf("%s: %d sites inlined, want %d (%+v)", sql, got, sites, rep.Inlined)
		}
		native, err := in.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := in.QueryFused(sql)
		if err != nil {
			t.Fatal(err)
		}
		if renderTable(fused) != renderTable(native) {
			t.Errorf("%s:\nfused:\n%s\nnative:\n%s", sql, renderTable(fused), renderTable(native))
		}
	}
}
