package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"qfusor/internal/sqlengine"
)

// Spans are recorded here, around the calls into each layer's public
// functions; spans inside the program are a later change. An operation's
// spans are appended only after it has finished, so the only cost inside
// a traced operation is reading the clock between stages.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Op     int    `json:"op"`     // shared by all spans of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps one append-only span list per client, so recording takes
// no lock.
type tracer struct {
	t0    time.Time
	spans [][]span
}

func newTracer(clients int) *tracer {
	return &tracer{t0: time.Now(), spans: make([][]span, clients)}
}

// root opens a new operation for client c and returns its root span id.
func (t *tracer) root(c int, name string, start, end time.Time) int {
	id := c<<24 | len(t.spans[c])
	t.spans[c] = append(t.spans[c], span{ID: id, Parent: -1, Op: id, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// child adds a span under parent within root's operation.
func (t *tracer) child(c, root, parent int, name string, start time.Time, d time.Duration) int {
	id := c<<24 | len(t.spans[c])
	s := start.Sub(t.t0).Nanoseconds()
	t.spans[c] = append(t.spans[c], span{ID: id, Parent: parent, Op: root, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

func (t *tracer) all() []span {
	var out []span
	for _, s := range t.spans {
		out = append(out, s...)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func selfTimes(spans []span) map[string]float64 {
	covered := map[int]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		if d := s.End - s.Start - covered[s.ID]; d > 0 {
			self[s.Name] += float64(d)
		}
	}
	return self
}

// staged executes an operation in process one layer at a time —
// ParseSQL, QFusor.Process, Engine.ExecuteCtx — with a span around each.
// outcome.latency is the whole operation, outcome.staged the stages
// alone.
func (r *runner) staged(t *tracer) execFn {
	return func(c int, o op, sql, _ string, check bool) (outcome, error) {
		inst := r.inst
		t0 := time.Now()
		if o.Kind == opExec {
			err := inst.Eng.Exec(sql)
			t1 := time.Now()
			root := t.root(c, "op", t0, t1)
			t.child(c, root, root, "execute", t0, t1.Sub(t0))
			return outcome{latency: t1.Sub(t0), staged: t1.Sub(t0)}, err
		}
		_, err := sqlengine.ParseSQL(sql)
		t1 := time.Now()
		if err != nil {
			return outcome{latency: t1.Sub(t0)}, err
		}
		q, rep, err := inst.QF.Process(inst.Eng, sql)
		t2 := time.Now()
		if err != nil {
			return outcome{latency: t2.Sub(t0)}, err
		}
		tbl, err := inst.Eng.ExecuteCtx(context.Background(), q)
		t3 := time.Now()
		out := outcome{latency: t3.Sub(t0), staged: t1.Sub(t0) + t2.Sub(t1) + t3.Sub(t2), planCache: rep.PlanCache}
		if err != nil {
			return out, err
		}
		out.rows = tbl.NumRows()
		if check {
			out.hash, out.scalar = tableHash(tbl)
		}
		root := t.root(c, "op", t0, t3)
		t.child(c, root, root, "parse", t0, t1.Sub(t0))
		p := t.child(c, root, root, "process", t1, t2.Sub(t1))
		// Report says how the front-end's time split; the two phases ran
		// back to back from the start of Process.
		t.child(c, root, p, "fusoptim", t1, rep.FusOptim)
		t.child(c, root, p, "codegen", t1.Add(rep.FusOptim), rep.CodeGen)
		t.child(c, root, root, "execute", t2, t3.Sub(t2))
		return out, nil
	}
}

// roundTrips executes an operation over HTTP through d[c] with a span
// around the round trip; the response body says how long the request
// waited for admission and executed, and the remainder — decode, session
// lookup, JSON encode, loopback — is the root span's self time.
func roundTrips(t *tracer, d []driver) execFn {
	return func(c int, o op, sql, handle string, check bool) (outcome, error) {
		t0 := time.Now()
		out, err := d[c].run(o.Kind, sql, handle, false, check)
		root := t.root(c, "http_roundtrip", t0, t0.Add(out.latency))
		wait, exec := time.Duration(out.waitNS), time.Duration(out.execNS)
		t.child(c, root, root, "admission_wait", t0, wait)
		t.child(c, root, root, "server_exec", t0.Add(wait), exec)
		out.staged = out.latency
		return out, err
	}
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Host     map[string]any `json:"host"`
	Spans    []span         `json:"spans"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	raw, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
