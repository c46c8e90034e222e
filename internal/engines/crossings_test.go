package engines_test

import (
	"context"
	"testing"

	"qfusor/internal/engines"
	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
	"qfusor/internal/workload"
)

// TestRowProfileCrossings pins, by counter, where a UDF call crosses on
// the tuple-at-a-time profiles. A scalar UDF in a projection crosses once
// per row (one IPC round trip per row on PostgreSQL), under a LIMIT only
// for the rows the LIMIT takes, and below a join still per row; a UDF as
// a GROUP BY key crosses in the transport's batches (⌈n/256⌉ round trips
// on PostgreSQL); a fused paper query runs in process, with no round trip,
// and so does a fused aggregate's UDF aggregate (Q5, Q7), which the
// engine folds at the barrier.
func TestRowProfileCrossings(t *testing.T) {
	calls, trips := obs.Default.Counter("ffi.udf.calls"), obs.Default.Counter("ffi.ipc.roundtrips")
	ub := workload.GenUDFBench(workload.Tiny)
	arts, pubs := int64(ub.Artifacts.NumRows()), int64(ub.Pubs.NumRows())
	for _, prof := range []engines.Profile{engines.SQLite, engines.Postgres} {
		in := engines.Launch(engines.Config{Profile: prof, JIT: true})
		if err := workload.InstallUDFBench(in); err != nil {
			t.Fatal(err)
		}
		in.Put(ub.Pubs)
		in.Put(ub.Artifacts)
		// cross runs sql natively and returns the calls and round trips
		// it made.
		cross := func(sql string) (dc, dt int64) {
			t.Helper()
			c0, t0 := calls.Value(), trips.Value()
			if _, err := in.Query(sql); err != nil {
				t.Fatalf("%s: %s: %v", prof, sql, err)
			}
			return calls.Value() - c0, trips.Value() - t0
		}
		perRow := func(what, sql string, rows int64) {
			t.Helper()
			dc, dt := cross(sql)
			wantTrips := int64(0)
			if prof == engines.Postgres {
				wantTrips = rows
			}
			if dc != rows || dt != wantTrips {
				t.Errorf("%s: %s: %d calls, %d round trips; want %d and %d", prof, what, dc, dt, rows, wantTrips)
			}
		}
		perRow("projection", "SELECT lower(title) AS t FROM artifacts", arts)
		perRow("LIMIT 7 above a projection", "SELECT lower(title) AS t FROM artifacts LIMIT 7", 7)
		perRow("projection below a join",
			"SELECT x.t, y.cat FROM (SELECT aid, lower(title) AS t FROM artifacts) AS x JOIN artifacts AS y ON x.aid = y.aid", arts)

		dc, dt := cross("SELECT extractfunder(project) AS f, COUNT(*) AS n FROM pubs GROUP BY extractfunder(project)")
		switch batches := (pubs + 255) / 256; {
		case prof == engines.Postgres && dt != batches:
			t.Errorf("%s: GROUP BY f(x) over %d rows made %d round trips, want %d", prof, pubs, dt, batches)
		case prof == engines.SQLite && (dc < 1 || dc > (pubs+2047)/2048):
			t.Errorf("%s: GROUP BY f(x) over %d rows made %d calls, want one per morsel", prof, pubs, dc)
		}

		for _, id := range []string{"Q1", "Q5", "Q7"} {
			sql := workload.AllQueries()[id]
			if id != "Q1" {
				q, _, err := in.QF.Process(in.Eng, sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", prof, id, err)
				}
				fusedAgg := false
				q.Root.Walk(func(p *sqlengine.Plan) { fusedAgg = fusedAgg || p.Op == sqlengine.OpFusedAgg })
				if !fusedAgg {
					t.Errorf("%s: %s has no FusedAgg:\n%s", prof, id, q.Explain())
				}
			}
			t0 := trips.Value()
			_, rep, err := in.QueryFusedReportedCtx(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", prof, id, err)
			}
			if rep.Fallback || len(rep.Sources) == 0 {
				t.Errorf("%s: %s did not run fused (fallback %q)", prof, id, rep.FallbackReason)
			}
			if d := trips.Value() - t0; d != 0 {
				t.Errorf("%s: fused %s made %d round trips, want 0", prof, id, d)
			}
		}
		in.Close()
	}
}
