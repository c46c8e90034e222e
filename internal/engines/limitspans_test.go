package engines_test

import (
	"context"
	"testing"

	"qfusor/internal/engines"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
	"qfusor/internal/workload"
)

// TestLimitSpanTreeMatchesPlan: a traced query whose LIMIT stops a chain
// of row-wise operators early still shows one span per plan operator,
// nested as the plan is — the chain's source under its lowest operator —
// and each chain operator's rows_out sums its windows.
func TestLimitSpanTreeMatchesPlan(t *testing.T) {
	ub := workload.GenUDFBench(workload.Tiny)
	for _, prof := range []engines.Profile{engines.Monet, engines.SQLite} {
		in := engines.Launch(engines.Config{Profile: prof, JIT: true})
		if err := workload.InstallUDFBench(in); err != nil {
			t.Fatal(err)
		}
		in.Put(ub.Artifacts)
		for _, c := range []struct {
			sql       string
			projected int64 // rows the projection yields over all its windows
		}{
			{"SELECT lower(title) AS t FROM artifacts LIMIT 7", 7},
			// The filter keeps a third of the rows, so the chain needs
			// more than one window.
			{"SELECT lower(title) AS t FROM artifacts WHERE aid % 3 = 0 LIMIT 7", -1},
		} {
			q, err := in.Eng.Plan(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			root := obs.NewSpan("query")
			if _, _, err := in.Eng.ExecuteTracedCtx(context.Background(), q, root); err != nil {
				t.Fatalf("%s: %s: %v", prof, c.sql, err)
			}
			root.End()
			kids := root.Children()
			if len(kids) != 1 {
				t.Fatalf("%s: %s: %d root spans, want 1:\n%s", prof, c.sql, len(kids), root.Render())
			}
			matchPlan(t, kids[0], q.Root, root)
			proj := kids[0].Find("op:Project")
			if got, _ := proj.Counter("rows_out"); c.projected >= 0 && got != c.projected {
				t.Errorf("%s: %s: Project rows_out = %d, want %d", prof, c.sql, got, c.projected)
			}
			if got, _ := kids[0].Counter("rows_out"); got != 7 {
				t.Errorf("%s: %s: Limit rows_out = %d, want 7", prof, c.sql, got)
			}
		}
		in.Close()
	}
}

// matchPlan fails unless sp's subtree has the shape of plan p's: one
// op:<operator> span per node, its children in plan order.
func matchPlan(t *testing.T, sp *obs.Span, p *sqlengine.Plan, root *obs.Span) {
	t.Helper()
	kids := sp.Children()
	if sp.Name != "op:"+p.Op.String() || len(kids) != len(p.Children) {
		t.Fatalf("span %s with %d children for plan node %s with %d:\n%s", sp.Name, len(kids), p.Op, len(p.Children), root.Render())
	}
	for i, c := range p.Children {
		matchPlan(t, kids[i], c, root)
	}
}
