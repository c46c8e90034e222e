package engines

import (
	"context"
	"fmt"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/obs"
)

const rowLib = `
@scalarudf
def up(s: str) -> str:
    return s.upper()

@expandudf
def echo(s: str) -> str:
    yield s
`

// rowDB launches a profile over a table t of n string rows with the
// rowLib UDFs.
func rowDB(t *testing.T, prof Profile, n int) *Instance {
	t.Helper()
	in := Launch(Config{Profile: prof})
	if err := in.Define(rowLib); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable("t", data.Schema{{Name: "s", Kind: data.KindString}})
	for i := 0; i < n; i++ {
		_ = tb.AppendRow(data.Str(fmt.Sprintf("r%d", i)))
	}
	in.Put(tb)
	return in
}

// TestScalarCallsAreAccountedOnEveryProfile: a scalar UDF call counts
// in the ffi.udf.* metrics on every profile. The vectorized transport
// makes one call over the batch; the row executor one call per row,
// in process (SQLite) or over the process transport (PostgreSQL).
func TestScalarCallsAreAccountedOnEveryProfile(t *testing.T) {
	calls, rowsIn := obs.Default.Counter("ffi.udf.calls"), obs.Default.Counter("ffi.udf.rows_in")
	for _, c := range []struct {
		prof          Profile
		calls, rowsIn int64
	}{{Monet, 1, 5}, {SQLite, 5, 5}, {Postgres, 5, 5}} {
		in := rowDB(t, c.prof, 5)
		c0, r0 := calls.Value(), rowsIn.Value()
		if _, err := in.Query("SELECT up(s) AS u FROM t"); err != nil {
			t.Fatalf("%s: %v", c.prof, err)
		}
		if dc, dr := calls.Value()-c0, rowsIn.Value()-r0; dc != c.calls || dr != c.rowsIn {
			t.Errorf("%s: ffi.udf.calls +%d, ffi.udf.rows_in +%d; want +%d and +%d", c.prof, dc, dr, c.calls, c.rowsIn)
		}
		in.Close()
	}
}

// TestTransportTimeReachesMetrics: on PostgreSQL, whose transport adds
// each call's round-trip time to the UDF's wall and wrapper time, the
// process-wide ffi.udf.wall_nanos and ffi.udf.wrap_nanos grow by exactly
// what the query's ffi.Usage reports.
func TestTransportTimeReachesMetrics(t *testing.T) {
	wall, wrap := obs.Default.Counter("ffi.udf.wall_nanos"), obs.Default.Counter("ffi.udf.wrap_nanos")
	in := rowDB(t, Postgres, 50)
	defer in.Close()
	q, err := in.Eng.Plan("SELECT up(s) AS u FROM t")
	if err != nil {
		t.Fatal(err)
	}
	w0, p0 := wall.Value(), wrap.Value()
	_, used, err := in.Eng.ExecuteTracedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var uw, up int64
	for _, u := range used {
		uw, up = uw+u.WallNanos, up+u.WrapNanos
	}
	if dw, dp := wall.Value()-w0, wrap.Value()-p0; dw != uw || dp != up || up == 0 {
		t.Errorf("ffi.udf.wall_nanos +%d, wrap_nanos +%d; the query's Usage reports wall %d, wrap %d (want equal, wrap > 0)", dw, dp, uw, up)
	}
}

// TestRowExecutorStreamsUnderLimit pins what the row executor still
// streams: under a LIMIT, a scalar UDF in a projection and an expand
// UDF run only on the rows the LIMIT takes, and on PostgreSQL each of
// those scalar calls is one IPC round trip.
func TestRowExecutorStreamsUnderLimit(t *testing.T) {
	trips := obs.Default.Counter("ffi.ipc.roundtrips")
	for _, prof := range []Profile{SQLite, Postgres} {
		in := rowDB(t, prof, 1000)
		inRows := func(sql, udf string) int64 {
			t.Helper()
			q, err := in.Eng.Plan(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", prof, sql, err)
			}
			_, used, err := in.Eng.ExecuteTracedCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", prof, sql, err)
			}
			for _, u := range used {
				if u.Name == udf {
					return u.InRows
				}
			}
			return 0
		}
		t0 := trips.Value()
		if got := inRows("SELECT up(s) AS u FROM t LIMIT 10", "up"); got != 10 {
			t.Errorf("%s: up ran on %d rows under LIMIT 10, want 10", prof, got)
		}
		if d := trips.Value() - t0; prof == Postgres && d != 10 {
			t.Errorf("%s: LIMIT 10 made %d IPC round trips, want 10", prof, d)
		}
		if got := inRows("SELECT echo(s) AS e FROM t LIMIT 2", "echo"); got > 2 {
			t.Errorf("%s: echo ran on %d rows under LIMIT 2, want at most 2", prof, got)
		}
		in.Close()
	}
}
