package core_test

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"qfusor/internal/core"
)

// TestDriftVisibleInAnalysis pins the per-section cost record: each
// fused section predicts its raw F(S), execution fills in the measured
// cost, a plan-cache hit reports the miss's prediction, neither hits
// nor misses write into the cached entry, and EXPLAIN ANALYZE renders
// predicted, actual and error.
func TestDriftVisibleInAnalysis(t *testing.T) {
	eng, qf := buildEngine(t)
	const sql = "SELECT id, upname(firstword(name)) FROM people"

	// The miss: Predicted is the F(S) that Algorithm 2 computed.
	_, miss, err := qf.Process(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if miss.PlanCache != "miss" || len(miss.SectionCosts) == 0 {
		t.Fatalf("plan cache %q, %d section costs; want a miss with sections", miss.PlanCache, len(miss.SectionCosts))
	}
	q, err := eng.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	var raw []float64
	for _, seg := range core.FindSegments(q.Root) {
		g, err := core.BuildDFG(seg)
		if err != nil {
			continue
		}
		for _, s := range core.DiscoverSections(g, qf.CM) {
			raw = append(raw, s.Cost)
		}
	}
	if len(raw) != len(miss.SectionCosts) {
		t.Fatalf("%d discovered sections, %d section costs", len(raw), len(miss.SectionCosts))
	}
	for i, sc := range miss.SectionCosts {
		if sc.Predicted != raw[i] || sc.Actual != 0 {
			t.Errorf("section %s: predicted %v actual %v, want F(S) %v and no actual before execution", sc.Key, sc.Predicted, sc.Actual, raw[i])
		}
	}

	// A hit reports the miss's prediction, and execution measures it.
	a, err := qf.QueryAnalyze(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.PlanCache != "hit" {
		t.Fatalf("plan cache %q, want hit", a.Report.PlanCache)
	}
	for i, sc := range a.Report.SectionCosts {
		if sc.Predicted != miss.SectionCosts[i].Predicted || sc.Key != miss.SectionCosts[i].Key {
			t.Errorf("hit section %d = %+v, miss had %+v", i, sc, miss.SectionCosts[i])
		}
		if sc.Actual <= 0 {
			t.Errorf("section %s has no measured cost after execution", sc.Key)
		}
	}
	out := a.Render()
	if !strings.Contains(out, "section firstword+upname") || !strings.Contains(out, "error ") ||
		strings.Contains(out, "calibration") {
		t.Fatalf("Render has no section-cost line:\n%s", out)
	}

	// Concurrent hits each measure into their own Report's copy.
	snap := qf.PlanCache.Snapshot()
	if len(snap.Entries) != 1 {
		t.Fatalf("%d plan-cache entries, want 1", len(snap.Entries))
	}
	cached := snap.Entries[0].SectionCosts
	want := slices.Clone(cached)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, rep, err := qf.QueryCtx(context.Background(), eng, sql)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.PlanCache != "hit" {
					t.Errorf("concurrent run: plan cache %q, want hit", rep.PlanCache)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(cached, want) {
		t.Fatalf("cached section costs changed under concurrent hits: %+v, want %+v", cached, want)
	}
	// An executed miss measures into its Report, not into the entry it
	// inserted.
	qf.PlanCache.Purge()
	if _, _, err := qf.QueryCtx(context.Background(), eng, sql); err != nil {
		t.Fatal(err)
	}
	for _, ent := range [][]core.SectionCost{cached, qf.PlanCache.Snapshot().Entries[0].SectionCosts} {
		for _, sc := range ent {
			if sc.Actual != 0 {
				t.Fatalf("cached entry carries a measured cost: %+v", sc)
			}
		}
	}
}
