package core_test

import (
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/engines"
	"qfusor/internal/workload"
)

// launchVMTier builds a fresh Monet instance pinned to the given tier
// with a tiny table and a chainable scalar UDF.
func launchVMTier(t *testing.T, tier core.Tier) *engines.Instance {
	t.Helper()
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true, Tier: tier})
	if err := in.Define("@scalarudf\ndef mark(s: str) -> str:\n    return s.strip() + \"!\"\n"); err != nil {
		t.Fatal(err)
	}
	if err := in.Eng.Exec("CREATE TABLE vt (id int, title string)"); err != nil {
		t.Fatal(err)
	}
	if err := in.Eng.Exec("INSERT INTO vt VALUES (1, 'a '), (2, ' b'), (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestVMTierSelection checks that the tier decision lands where the
// options point it: "vm" and "auto" run calls with a program on the VM,
// "closure" pins the trace loop — visible in the Report and the
// op-span tier attribute.
func TestVMTierSelection(t *testing.T) {
	const sql = "SELECT id, mark(mark(title)) AS m FROM vt ORDER BY id"
	for _, tc := range []struct {
		tier core.Tier
		want core.Tier
	}{
		{core.TierVM, core.TierVM},
		{core.TierAuto, core.TierVM},
		{core.TierClosure, core.TierClosure},
	} {
		in := launchVMTier(t, tc.tier)
		a, err := in.QueryAnalyze(sql)
		if err != nil {
			t.Fatalf("tier=%s: %v", tc.tier, err)
		}
		if len(a.Report.Tiers) != 1 || a.Report.Tiers[0] != tc.want {
			t.Errorf("tier=%s: Report.Tiers = %v, want [%s]", tc.tier, a.Report.Tiers, tc.want)
		}
		if got := a.Root.Render(); !strings.Contains(got, "tier="+string(tc.want)) {
			t.Errorf("tier=%s: span tree missing tier=%s:\n%s", tc.tier, tc.want, got)
		}
		if got := a.Result.Cols[1].Get(0).String(); got != "a!!" {
			t.Errorf("tier=%s: result = %q, want %q", tc.tier, got, "a!!")
		}
		in.Close()
	}
}

// TestVMTierRedefinition checks the epoch fence: redefining a source
// UDF must retire the plan-cache entry, the wrapper compile cache and
// the published VM program together, so the next execution runs the
// new body on a freshly lowered program — never stale bytecode.
func TestVMTierRedefinition(t *testing.T) {
	in := launchVMTier(t, "vm")
	defer in.Close()
	const sql = "SELECT id, mark(mark(title)) AS m FROM vt ORDER BY id"

	res, err := in.QueryFused(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cols[1].Get(0).String(); got != "a!!" {
		t.Fatalf("pre-redefinition result = %q, want %q", got, "a!!")
	}

	// Redefine with a different body: same name, new behavior.
	if err := in.Define("@scalarudf\ndef mark(s: str) -> str:\n    return s.strip() + \"?\"\n"); err != nil {
		t.Fatal(err)
	}
	res, err = in.QueryFused(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cols[1].Get(0).String(); got != "a??" {
		t.Fatalf("post-redefinition result = %q, want %q (stale VM program served?)", got, "a??")
	}
	// Still on the VM tier after the re-plan.
	if rep := in.QF.LastReport(); len(rep.Tiers) != 1 || rep.Tiers[0] != "vm" {
		t.Fatalf("post-redefinition Tiers = %v, want [vm]", rep.Tiers)
	}
}

// TestTierPinKeepsSharedWrappersTier: a closure-pinned session view of
// an instance lowers wrappers of its own, so it never changes the tier
// of the wrappers another session runs — not even those the other
// session replays from the plan cache — and Report.Tiers names the tier
// that ran.
func TestTierPinKeepsSharedWrappersTier(t *testing.T) {
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	defer in.Close()
	if err := workload.InstallUDFBench(in); err != nil {
		t.Fatal(err)
	}
	ub := workload.GenUDFBench(workload.Tiny)
	in.Put(ub.Pubs)
	in.Put(ub.Artifacts)
	closure := in.SessionView(core.TierClosure, 0, 0)

	for i, step := range []struct {
		in   *engines.Instance
		tier core.Tier
	}{{in, core.TierVM}, {closure, core.TierClosure}, {in, core.TierVM}} {
		a, err := step.in.QueryAnalyze(workload.Q1)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(a.Report.Tiers) == 0 {
			t.Fatalf("run %d: no fused wrapper", i)
		}
		for _, got := range a.Report.Tiers {
			if got != step.tier {
				t.Errorf("run %d: Report.Tiers = %v, want all %s", i, a.Report.Tiers, step.tier)
			}
		}
		vmRows := a.Metrics.Counters["qfusor.vm.rows"]
		if (vmRows > 0) != (step.tier == core.TierVM) {
			t.Errorf("run %d (%s): qfusor.vm.rows moved by %d", i, step.tier, vmRows)
		}
		if i == 2 && a.Report.PlanCache != "hit" {
			t.Errorf("run %d: plan cache %q, want a hit", i, a.Report.PlanCache)
		}
	}
}
