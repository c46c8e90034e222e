package core

import (
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
)

// Profiler implements §5.2.2's cold-start mitigation: before the cost
// model has execution statistics for a UDF, probe it with a few sampled
// rows (the exploration phase of the paper's CherryPick-style tuning)
// so Algorithm 2 decides from measured costs instead of defaults.
// Learned values land in the same stateful dictionary (ffi.Stats) that
// regular execution refines afterwards (exploitation).
type Profiler struct {
	// SampleRows is how many rows each probe draws (small by design —
	// "limited test runs").
	SampleRows int
}

// NewProfiler returns a profiler with the default probe size.
func NewProfiler() *Profiler { return &Profiler{SampleRows: 32} }

// ProfileColdUDFs probes every registered scalar UDF that has no
// statistics yet, sampling argument values from the given table's
// columns (matched by declared input kind). UDFs whose inputs cannot be
// sampled are left cold (the cost model's default applies).
func (p *Profiler) ProfileColdUDFs(eng *sqlengine.Engine, tableName string) int {
	t, ok := eng.Catalog.Table(tableName)
	if !ok {
		return 0
	}
	probed := 0
	for _, u := range eng.Catalog.UDFs() {
		if u.Kind != ffi.Scalar || u.Fused || u.Stats.InRows.Load() > 0 {
			continue
		}
		cols := p.sampleArgs(t, u)
		if cols == nil {
			continue
		}
		n := cols[0].Len()
		// Probe through the vectorized transport, on a clone: the catalog
		// UDF's runtime is shared, and a runtime view belongs to one
		// goroutine. Only a probe that succeeds folds its statistics
		// back; a failing one (dirty samples may not fit every UDF)
		// leaves the UDF fully cold.
		cu := u.WorkerClone()
		if _, err := (ffi.VectorInvoker{}).CallScalar(cu, cols, n); err == nil {
			u.AbsorbWorker(cu)
			probed++
		}
	}
	return probed
}

// sampleArgs picks sample columns for each declared input kind.
func (p *Profiler) sampleArgs(t *data.Table, u *ffi.UDF) []*data.Column {
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	rows := p.SampleRows
	if rows > n {
		rows = n
	}
	out := make([]*data.Column, 0, len(u.InKinds))
	for _, want := range u.InKinds {
		var src *data.Column
		for _, c := range t.Cols {
			if c.Kind == want {
				src = c
				break
			}
		}
		if src == nil {
			return nil
		}
		// Stride-sample across the table for variety.
		stride := n / rows
		if stride < 1 {
			stride = 1
		}
		idx := make([]int, 0, rows)
		for i := 0; i < n && len(idx) < rows; i += stride {
			idx = append(idx, i)
		}
		out = append(out, src.Take(idx))
	}
	if len(out) != len(u.InKinds) || len(out) == 0 {
		return nil
	}
	return out
}

// CostBucket quantizes a learned per-row cost into the coarse-grained
// buckets the paper's dictionary stores (powers of ~3.16, i.e. half
// decades of nanoseconds). The quantization lives in obs so the metrics
// registry's latency histograms use identical buckets.
func CostBucket(nanosPerRow float64) int {
	return obs.Bucket(nanosPerRow)
}

// BucketedCost converts a bucket back to a representative cost.
func BucketedCost(bucket int) float64 {
	return obs.BucketValue(bucket)
}
