package core_test

import (
	"context"
	"strings"
	"testing"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
)

// TestDriftCalObserve exercises the EWMA update directly: feeding the
// same under-prediction repeatedly must walk the calibration factor
// toward the value that makes the prediction exact.
func TestDriftCalObserve(t *testing.T) {
	d := core.NewDriftCal()
	if f := d.Factor("k"); f != 1 {
		t.Fatalf("cold factor = %v, want 1", f)
	}
	// The model's uncalibrated estimate is 1000ns but reality is 4000ns.
	const base, actual = 1000.0, 4000.0
	prevErr := 10.0
	for i := 0; i < 6; i++ {
		predicted := base * d.Factor("k") // as sectionCost would compute
		d.Observe("k", predicted, actual)
		err := predicted/actual - 1
		if err < 0 {
			err = -err
		}
		if i > 0 && err >= prevErr {
			t.Fatalf("iteration %d: |predicted/actual-1| = %v did not shrink (prev %v)", i, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 0.1 {
		t.Fatalf("after 6 observations drift still %v, want < 0.1", prevErr)
	}
	f := d.Factor("k")
	if f < 3 || f > 5 {
		t.Fatalf("calibration factor = %v, want near 4", f)
	}
	if got := d.Snapshot()["k"]; got != f {
		t.Fatalf("Snapshot[k] = %v, want %v", got, f)
	}
}

func TestDriftCalClampAndNilSafety(t *testing.T) {
	d := core.NewDriftCal()
	// A wild outlier moves the factor by at most the clamp in one step.
	d.Observe("k", 1, 1e12)
	if f := d.Factor("k"); f > 16 {
		t.Fatalf("factor %v exceeds one-step clamp", f)
	}
	// Non-positive observations are ignored.
	before := d.Factor("k")
	d.Observe("k", 0, 100)
	d.Observe("k", 100, 0)
	if f := d.Factor("k"); f != before {
		t.Fatalf("non-positive observation moved factor %v -> %v", before, f)
	}
	var nd *core.DriftCal
	if nd.Factor("x") != 1 || nd.Observe("x", 1, 2) != 1 || nd.Snapshot() != nil {
		t.Fatal("nil DriftCal must behave as identity")
	}
}

// buildDriftEngine builds an engine whose fused section does enough
// real work (two looping UDFs over a few thousand rows) that its
// measured wall time is stable run to run — a requirement for asserting
// on wall-clock convergence. The tiny buildEngine fixture runs in
// single-digit microseconds, where scheduler noise alone moves
// "actual" by 4x.
func buildDriftEngine(t *testing.T) (*sqlengine.Engine, *core.QFusor) {
	t.Helper()
	eng := sqlengine.New("monet", sqlengine.ModeColumnar, ffi.VectorInvoker{}, 0)
	nums := data.NewTable("nums", data.Schema{{Name: "n", Kind: data.KindInt}})
	for i := 0; i < 3000; i++ {
		if err := nums.AppendRow(data.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog.PutTable(nums)
	reg := core.NewRegistry(4)
	if err := reg.Define(`
@scalarudf
def drifta(x: int) -> int:
    s = 0
    for i in range(40):
        s = s + (x + i) % 7
    return s

@scalarudf
def driftb(x: int) -> int:
    t = 0
    for i in range(40):
        t = t + (x * 3 + i) % 11
    return t
`); err != nil {
		t.Fatal(err)
	}
	reg.Attach(eng)
	return eng, core.New(reg)
}

// TestDriftLoopConverges is the acceptance demonstration: running the
// same fused query repeatedly must shrink |predicted/actual − 1| as the
// measured section costs feed back into the cost model, and the learned
// calibration must be visible on the Report and in /metrics.
func TestDriftLoopConverges(t *testing.T) {
	eng, qf := buildDriftEngine(t)
	sql := "SELECT driftb(drifta(n)) FROM nums"

	var errs []float64
	var key string
	for i := 0; i < 12; i++ {
		_, rep, err := qf.QueryCtx(context.Background(), eng, sql)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(rep.SectionCosts) == 0 {
			t.Fatalf("run %d: no SectionCosts on report", i)
		}
		sd := rep.SectionCosts[0]
		if sd.Actual <= 0 {
			t.Fatalf("run %d: section %q has no measured cost", i, sd.Key)
		}
		key = sd.Key
		errs = append(errs, sd.AbsErr())
	}
	if key != "drifta+driftb" {
		t.Fatalf("section key = %q, want drifta+driftb", key)
	}

	// Convergence: the late-run drift must beat the early runs (or be
	// flatly small already — a lucky cold estimate is not a failure).
	// Medians, not single runs: the "actual" side is a wall-clock
	// measurement of a microsecond-scale section, so individual runs
	// jitter. Under the race detector that jitter swamps the signal
	// entirely, so the strict comparison is skipped there (the loop
	// mechanics above, plus the calibration/metrics checks below, still
	// ran).
	if raceEnabled {
		t.Log("race detector on: skipping wall-clock convergence assertion")
	} else {
		head := median3(errs[0], errs[1], errs[2])
		tail := median3(errs[9], errs[10], errs[11])
		if tail >= head && tail > 0.5 {
			t.Fatalf("drift did not converge: early median |p/a-1| = %.3f, late median = %.3f (all: %v)", head, tail, errs)
		}
	}

	// Calibration is learned (shared through CostModel.Drift) ...
	if f := qf.CM.Drift.Factor(key); f == 1 {
		t.Fatalf("calibration factor for %q still 1.0 after 12 runs", key)
	}
	// ... and exported: the labeled gauges land in valid exposition text.
	text := obs.Default.Snapshot().Prometheus()
	samples, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if _, ok := samples[`qfusor_drift_calibration_milli{section="drifta+driftb"}`]; !ok {
		t.Fatalf("calibration gauge missing from /metrics; have keys like:\n%s", grepKeys(samples, "drift"))
	}
	if _, ok := samples[`qfusor_drift_abs_err_pct{section="drifta+driftb"}`]; !ok {
		t.Fatal("abs_err gauge missing from /metrics")
	}
	if samples["qfusor_drift_observations"] < 12 {
		t.Fatalf("qfusor_drift_observations = %v, want >= 12", samples["qfusor_drift_observations"])
	}
}

// TestDriftVisibleInAnalysis checks the EXPLAIN ANALYZE surface: the
// drift lines render with predicted, actual and calibration.
func TestDriftVisibleInAnalysis(t *testing.T) {
	eng, qf := buildEngine(t)
	sql := "SELECT id, upname(firstword(name)) FROM people"
	a, err := qf.QueryAnalyze(eng, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.SectionCosts) == 0 {
		t.Fatal("analysis has no SectionCosts")
	}
	if a.Report.SectionCosts[0].Actual <= 0 {
		t.Fatal("analysis section has no measured cost")
	}
	out := a.Render()
	if !strings.Contains(out, "Cost-model drift") || !strings.Contains(out, "firstword+upname") ||
		!strings.Contains(out, "calibration") {
		t.Fatalf("Render missing drift section:\n%s", out)
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func grepKeys(samples map[string]float64, sub string) string {
	var b strings.Builder
	for k := range samples {
		if strings.Contains(k, sub) {
			b.WriteString(k + "\n")
		}
	}
	return b.String()
}
