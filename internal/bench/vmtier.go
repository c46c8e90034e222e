package bench

import (
	"fmt"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/engines"
	"qfusor/internal/workload"
)

// VMTierBench is E20: the vectorized VM tier experiment. Part one runs
// each UDFBench query (Q1–Q3) on two session views of one instance —
// fused sections pinned to the closure tier vs pinned to the VM tier —
// and reports both end-to-end latency and the section-boundary time
// (the per-query ledger's FFI wall clock, which is exactly the fused
// wrapper execution the tier decision governs). Both tiers load rows
// into the same register file the same way, so the gap is what the VM
// saves over compiled-closure call frames. Part two sweeps the morsel
// size on the VM tier, since morsel granularity bounds both the
// register-file reuse and the bailout blast radius.
func (r *Runner) VMTierBench() (*Result, error) {
	res := &Result{ID: "E20", Title: "Vectorized VM tier: closure vs VM dispatch (UDFBench Q1–Q3) + morsel sweep"}
	reps := 11
	if r.Quick {
		reps = 5
	}

	base, err := r.launchWorkload(engines.Config{Profile: engines.Monet, JIT: true}, "udfbench")
	if err != nil {
		return nil, err
	}
	defer base.Close()
	closure := base.SessionView(core.TierClosure, 0, 0)
	vm := base.SessionView(core.TierVM, 0, 0)

	queries := []struct {
		name string
		sql  string
	}{{"Q1", workload.Q1}, {"Q2", workload.Q2}, {"Q3", workload.Q3}}

	// One sample: end-to-end latency plus the fused-section boundary
	// time from the per-query resource ledger.
	sample := func(in *engines.Instance, sql string) (total, section time.Duration, vmRows, bailRows int64, err error) {
		start := time.Now()
		a, err := in.QueryAnalyze(sql)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		total = time.Since(start)
		if a.Resources != nil {
			section = time.Duration(a.Resources.FFIWallNanos)
			vmRows = a.Resources.VMRows
			bailRows = a.Resources.VMBailRows
		}
		return total, section, vmRows, bailRows, nil
	}

	// measurePair runs one query on both arms, interleaving repetitions
	// so slow drift (GC, background load, frequency scaling) cancels
	// out of the median, and returns the comparison row. The warm-up
	// covers plan-cache priming, trace recording and (on the VM arm)
	// bytecode lowering, so the measured repetitions compare steady
	// states.
	measurePair := func(label, sql string) (Row, error) {
		if _, _, _, _, err := sample(closure, sql); err != nil {
			return Row{}, fmt.Errorf("%s closure warm-up: %w", label, err)
		}
		if _, _, _, _, err := sample(vm, sql); err != nil {
			return Row{}, fmt.Errorf("%s vm warm-up: %w", label, err)
		}
		cTot := make([]time.Duration, 0, reps)
		cSec := make([]time.Duration, 0, reps)
		vTot := make([]time.Duration, 0, reps)
		vSec := make([]time.Duration, 0, reps)
		var vmRows, bailRows int64
		for i := 0; i < reps; i++ {
			t, s, _, _, err := sample(closure, sql)
			if err != nil {
				return Row{}, fmt.Errorf("%s closure: %w", label, err)
			}
			cTot, cSec = append(cTot, t), append(cSec, s)
			t, s, vr, br, err := sample(vm, sql)
			if err != nil {
				return Row{}, fmt.Errorf("%s vm: %w", label, err)
			}
			vTot, vSec = append(vTot, t), append(vSec, s)
			vmRows, bailRows = vr, br
		}
		// Totals take the median (they absorb planning and execution
		// noise); section times take the best observation — scheduler and
		// GC interference is strictly additive, so min is the faithful
		// estimate of the dispatch cost the tier decision governs.
		row := Row{
			Label: label,
			Order: []string{"closure_ms", "vm_ms", "closure_section_ms", "vm_section_ms", "section_speedup", "vm_rows", "bail_rows"},
			Metrics: map[string]float64{
				"closure_ms":         ms(medianDur(cTot)),
				"vm_ms":              ms(medianDur(vTot)),
				"closure_section_ms": ms(minDur(cSec)),
				"vm_section_ms":      ms(minDur(vSec)),
				"vm_rows":            float64(vmRows),
				"bail_rows":          float64(bailRows),
			},
		}
		if vs := minDur(vSec); vs > 0 {
			row.Metrics["section_speedup"] = float64(minDur(cSec)) / float64(vs)
		}
		if vmRows == 0 {
			row.Note = "no call with a program (stayed on closure tier)"
		}
		return row, nil
	}

	for _, q := range queries {
		row, err := measurePair(fmt.Sprintf("tier/%s", q.name), q.sql)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Dispatch-bound sections: the UDFBench queries' bodies are
	// json.loads-heavy, and both tiers pay that body compute identically
	// — Amdahl caps the whole-section ratio regardless of how fast
	// dispatch gets. These rows isolate the cost the tier decision
	// actually governs (boundary boxing + call frames) on light-bodied
	// UDF pairs drawn from Q1's select list.
	dispatchBound := []struct{ name, sql string }{
		{"lower+cleandate", "SELECT lower(title) AS t, cleandate(pubdate) AS d FROM pubs"},
		{"lower+lower", "SELECT lower(title) AS t, lower(authors) AS a FROM pubs"},
	}
	for _, q := range dispatchBound {
		row, err := measurePair(fmt.Sprintf("section/%s", q.name), q.sql)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Morsel-size sweep on the VM tier (Q3, the section-heavy
	// running example). Each size gets its own instance — morsel size is
	// an engine-level setting.
	sizes := []int{256, 1024, 2048, 8192}
	for _, msz := range sizes {
		in, err := r.launchWorkload(engines.Config{Profile: engines.Monet, JIT: true, Tier: core.TierVM, MorselSize: msz}, "udfbench")
		if err != nil {
			return nil, err
		}
		if _, _, _, _, err := sample(in, workload.Q3); err != nil {
			in.Close()
			return nil, fmt.Errorf("morsel=%d warm-up: %w", msz, err)
		}
		tots := make([]time.Duration, 0, reps)
		secs := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			t, s, _, _, err := sample(in, workload.Q3)
			if err != nil {
				in.Close()
				return nil, fmt.Errorf("morsel=%d: %w", msz, err)
			}
			tots, secs = append(tots, t), append(secs, s)
		}
		in.Close()
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("morsel/%d", msz),
			Order: []string{"vm_ms", "vm_section_ms"},
			Metrics: map[string]float64{
				"vm_ms":         ms(medianDur(tots)),
				"vm_section_ms": ms(minDur(secs)),
			},
			Note: "Q3, VM tier",
		})
	}

	res.Notes = append(res.Notes,
		"gate (make vm-smoke): section_speedup > 1 on the dispatch-bound section/ rows (closure_section_ms / vm_section_ms; section time = per-query ledger FFI wall clock); both tiers load rows alike, so the ratio is the closure tier's call frames alone (lower+lower ~1.2x at size small)",
		"every section pays its UDF body compute on both tiers (Amdahl): lower+cleandate keeps cleandate's split/replace chains (~1.2x), and the json.loads-heavy tier/Q1–Q3 rows report real but smaller gains",
		"vm_rows > 0 and bail_rows = 0 show the VM tier engaged and stayed on the fast path; a bailing call re-runs on the closure tier, that call only; each call is lowered on its own, so Q3's expanding section runs its calls on the VM too",
		"morsel sweep pins the VM tier; the default 2048 balances register-file reuse against cache residency")
	return res, nil
}
