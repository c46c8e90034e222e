package bench

import (
	"io"
	"slices"
	"strings"
	"testing"

	"qfusor/internal/workload"
)

// quickRunner builds a tiny/quick runner for CI-speed smoke tests.
func quickRunner() *Runner {
	r := NewRunner(workload.Tiny, io.Discard)
	r.Quick = true
	return r
}

// TestEveryExperimentRuns executes the full experiment catalogue at
// tiny/quick scale: this is the end-to-end guarantee that every figure
// and table of the paper can be regenerated.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	for name, fn := range r.Experiments() {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			res, err := fn()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", name)
			}
			for _, row := range res.Rows {
				if row.Label == "" {
					t.Fatalf("%s has an unlabelled row", name)
				}
			}
		})
	}
}

// TestFig6bShape: fused execution must beat non-fused on the
// PostgreSQL profile (IPC elimination) at every selectivity. One cold
// sample per arm is noise on a loaded machine, so the experiment runs
// fig6bRuns times and the arms compare by their per-label medians.
func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const fig6bRuns = 7
	r := quickRunner()
	samples := map[string][]float64{}
	for range fig6bRuns {
		res, err := r.Fig6bOffload()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			samples[row.Label] = append(samples[row.Label], row.Metrics["time_ms"])
		}
	}
	byLabel := map[string]float64{}
	for label, ms := range samples {
		slices.Sort(ms)
		byLabel[label] = ms[len(ms)/2]
	}
	for label, v := range byLabel {
		if !strings.HasPrefix(label, "postgresql/") || !strings.HasSuffix(label, "/fused") {
			continue
		}
		nofus := byLabel[strings.Replace(label, "/fused", "/no-fus", 1)]
		if nofus <= v {
			t.Errorf("%s: fused (%.2fms) not faster than no-fus (%.2fms)", label, v, nofus)
		}
	}
}

// TestFig4OverheadSmall: optimizer overheads stay in the
// low-millisecond range. As in TestFig6bShape, one cold sample is noise
// on a loaded machine, so the experiment runs fig4Runs times and each
// query's overheads are bounded by their medians.
func TestFig4OverheadSmall(t *testing.T) {
	const fig4Runs = 7
	r := quickRunner()
	samples := map[string]map[string][]float64{}
	for range fig4Runs {
		res, err := r.Fig4Overhead()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if samples[row.Label] == nil {
				samples[row.Label] = map[string][]float64{}
			}
			for _, m := range []string{"fus-optim_ms", "code-gen_ms"} {
				samples[row.Label][m] = append(samples[row.Label][m], row.Metrics[m])
			}
		}
	}
	for label, byMetric := range samples {
		for m, ms := range byMetric {
			slices.Sort(ms)
			if med := ms[len(ms)/2]; med > 100 {
				t.Errorf("%s: median %s %.2f over %d runs is too large (samples %v)", label, m, med, fig4Runs, ms)
			}
		}
	}
}

// TestPrintFormatting renders a result without panicking and includes
// the metrics.
func TestPrintFormatting(t *testing.T) {
	var sb strings.Builder
	r := NewRunner(workload.Tiny, &sb)
	r.Print(&Result{ID: "X", Title: "t", Rows: []Row{
		{Label: "a", Metrics: map[string]float64{"time_ms": 1.5}, Order: []string{"time_ms"}},
		{Label: "b", Note: "n/a"},
	}})
	out := sb.String()
	if !strings.Contains(out, "time_ms") || !strings.Contains(out, "n/a") {
		t.Fatalf("formatting:\n%s", out)
	}
}
