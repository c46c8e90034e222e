package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

// Cost-model drift tracking: §5.2's stateful wrappers "collect
// execution statistics used to refine the cost model", and the learned
// estimators in PAPERS.md (GRACEFUL) show predicted-vs-actual feedback
// is the highest-leverage signal. DriftCal closes that loop for fused
// sections: every successful fused execution records the measured
// wrapper cost next to the cost model's prediction, and a per-section
// calibration factor converges so repeated queries predict what they
// actually cost. The factor scales the prediction each realized section
// records (realizeSections) — not the DP's selection comparison, which
// would let one noisy run flip fusion decisions and defeat the wrapper
// compile cache (see the note in sectionCost).

// Drift metrics (obs.Default). The counter exists from process start so
// the qfusor.drift family is always present in /metrics; per-section
// calibration gauges appear after the first observation.
var mDriftObs = obs.Default.Counter("qfusor.drift.observations")

// driftAlpha is the EWMA weight of each new observation.
const driftAlpha = 0.5

// driftClamp bounds a single observation's correction: one anomalous
// run (cold cache, page fault storm) may pull the factor by at most
// 16x in either direction.
const driftClamp = 16.0

// DriftCal is the per-section calibration store. Keys are stable
// section identities (see sectionKeyOf) so repeated executions of the
// same query — or different queries fusing the same UDF chain — share
// a calibration.
type DriftCal struct {
	mu    sync.Mutex
	calib map[string]float64
	last  map[string]driftPoint
}

// driftPoint is the most recent predicted/actual pair for a section.
type driftPoint struct {
	Predicted float64
	Actual    float64
}

// NewDriftCal creates an empty calibration store (every factor 1.0).
func NewDriftCal() *DriftCal {
	return &DriftCal{calib: make(map[string]float64), last: make(map[string]driftPoint)}
}

// Factor returns the section's calibration factor (1.0 when unknown).
// Nil-safe.
func (d *DriftCal) Factor(key string) float64 {
	if d == nil {
		return 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.calib[key]; ok {
		return f
	}
	return 1
}

// Observe feeds one predicted/actual pair (nanoseconds) back into the
// calibration: the factor moves by an EWMA step toward the value that
// would have made the prediction exact. Returns the updated factor.
// Non-positive inputs are ignored. Nil-safe.
func (d *DriftCal) Observe(key string, predicted, actual float64) float64 {
	if d == nil {
		return 1
	}
	if predicted <= 0 || actual <= 0 {
		return d.Factor(key)
	}
	ratio := actual / predicted
	if ratio > driftClamp {
		ratio = driftClamp
	}
	if ratio < 1/driftClamp {
		ratio = 1 / driftClamp
	}
	d.mu.Lock()
	f, ok := d.calib[key]
	if !ok {
		f = 1
	}
	// predicted already includes f, so the exact factor would be f·ratio.
	f = (1-driftAlpha)*f + driftAlpha*(f*ratio)
	d.calib[key] = f
	d.last[key] = driftPoint{Predicted: predicted, Actual: actual}
	d.mu.Unlock()

	mDriftObs.Inc()
	// Export: calibration in milli-units (the registry stores int64), and
	// the latest absolute drift |predicted/actual − 1| in percent.
	obs.Default.Gauge(obs.LabeledName("qfusor.drift.calibration_milli", "section", key)).Set(int64(f*1000 + 0.5))
	drift := predicted/actual - 1
	if drift < 0 {
		drift = -drift
	}
	obs.Default.Gauge(obs.LabeledName("qfusor.drift.abs_err_pct", "section", key)).Set(int64(drift*100 + 0.5))
	return f
}

// Snapshot returns every section's calibration factor. Nil-safe.
func (d *DriftCal) Snapshot() map[string]float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64, len(d.calib))
	for k, v := range d.calib {
		out[k] = v
	}
	return out
}

// SectionDrift is one fused section's cost-model bookkeeping on a
// query's Report: the calibrated prediction made at discovery time, the
// measured cost after execution, and the calibration factor that was in
// effect. AbsErr is |Predicted/Actual − 1| (the drift-loop convergence
// metric); it is 0 until the section executed.
type SectionDrift struct {
	Wrapper     string  `json:"wrapper"`
	Key         string  `json:"key"`
	Predicted   float64 `json:"predicted_nanos"`
	Actual      float64 `json:"actual_nanos,omitempty"`
	Calibration float64 `json:"calibration"`
}

// AbsErr returns |Predicted/Actual − 1| (0 before execution).
func (sd SectionDrift) AbsErr() float64 {
	if sd.Actual <= 0 || sd.Predicted <= 0 {
		return 0
	}
	e := sd.Predicted/sd.Actual - 1
	if e < 0 {
		return -e
	}
	return e
}

// sectionKeyOf derives a section's stable identity from the UDF names
// it fuses: known at discovery time (before any wrapper exists) and
// identical across repeated queries, which is what lets the calibration
// converge. Relational riders are excluded — the same UDF chain with a
// reordered filter should share its learned factor.
func sectionKeyOf(g *DFG, nodes []int) string {
	var names []string
	for _, id := range nodes {
		nd := g.Nodes[id]
		if nd.Kind.IsUDF() {
			names = append(names, strings.ToLower(nd.Name))
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// observeSectionCosts closes the drift loop after a successful fused
// execution: the measured cost of each section is its wrapper's wall +
// boundary-conversion time in this query — the Stats of the query's own
// clone of the wrapper (morsel workers fold into it at the barrier), so
// concurrent queries sharing the wrapper never leak into each other's
// measurement. Each pair updates the calibration store and the
// per-section /metrics gauges, and lands on the Report for Analysis.
func (qf *QFusor) observeSectionCosts(rep *Report, used []ffi.Usage) {
	for i := range rep.SectionCosts {
		sd := &rep.SectionCosts[i]
		for _, u := range used {
			if u.Name != sd.Wrapper {
				continue
			}
			if actual := float64(u.WallNanos + u.WrapNanos); actual > 0 {
				sd.Actual = actual
				qf.CM.Drift.Observe(sd.Key, sd.Predicted, actual)
			}
		}
	}
}

// renderDrift formats the drift lines for Analysis.Render.
func renderDrift(b *strings.Builder, secs []SectionDrift) {
	for _, sd := range secs {
		fmt.Fprintf(b, "  section %s (wrapper %s): predicted %.0fns", sd.Key, sd.Wrapper, sd.Predicted)
		if sd.Actual > 0 {
			fmt.Fprintf(b, ", actual %.0fns, drift %.1f%%", sd.Actual, sd.AbsErr()*100)
		}
		fmt.Fprintf(b, ", calibration %.3f\n", sd.Calibration)
	}
}
