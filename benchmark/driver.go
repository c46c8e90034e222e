package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/server"
)

// This file is the only place operations reach the program: embedded
// ones through engines.Instance, served ones through the /v1 HTTP API.

// launch starts an instance for the inputs: profile, UDF libraries,
// tables. Tables are shared between instances (queries never mutate
// them; only serve_short_mixed writes, and it launches once per set-up).
func launch(in *inputs) (*engines.Instance, error) {
	inst := engines.Launch(engines.Config{Profile: in.profile, JIT: true})
	for _, install := range in.install {
		if err := install(inst); err != nil {
			inst.Close()
			return nil, fmt.Errorf("install UDF library: %w", err)
		}
	}
	for _, t := range in.tables {
		inst.Put(t)
	}
	return inst, nil
}

// outcome is what one operation returned, as far as the benchmark
// needs it.
type outcome struct {
	latency time.Duration
	// staged is the time inside traced stages (traced passes only).
	staged time.Duration
	// planCache is Report.PlanCache: "hit", "miss", or "" for plain SQL.
	planCache string
	rows      int
	// hash is the row-multiset hash, scalar the single cell of a 1×1
	// result; both only when asked for.
	hash   uint64
	scalar string
	// Served operations only: what the response said about itself.
	execNS, waitNS int64
	respBytes      int
	// status is the HTTP status (200 for embedded successes).
	status int
	// fallback: the optimized plan was abandoned for the native one.
	fallback bool
	// inlineSites counts UDF call sites the plan inlined (embedded only;
	// the HTTP report does not carry it).
	inlineSites int
}

// driver executes operations for one client.
type driver interface {
	// run executes sql; native selects the engine's unfused path (the
	// correctness reference). check asks for hash and scalar.
	run(kind opKind, sql, handle string, native, check bool) (outcome, error)
}

// rowHash folds one row's canonical text into an order-independent sum.
func rowHash(acc uint64, row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return acc + h.Sum64()
}

func tableHash(t *data.Table) (hash uint64, scalar string) {
	var b strings.Builder
	for i, n := 0, t.NumRows(); i < n; i++ {
		b.Reset()
		for _, c := range t.Cols {
			b.WriteString(c.Get(i).Key())
			b.WriteByte('|')
		}
		hash = rowHash(hash, b.String())
	}
	if t.NumRows() == 1 && len(t.Cols) == 1 {
		scalar = t.Cols[0].Get(0).String()
	}
	return hash, scalar
}

// embedded calls the instance in process, the way a qfusor.DB session
// does.
type embedded struct{ inst *engines.Instance }

func (d embedded) run(kind opKind, sql, _ string, native, check bool) (outcome, error) {
	ctx := context.Background()
	var (
		t   *data.Table
		rep *core.Report
		err error
	)
	start := time.Now()
	switch {
	case kind == opExec:
		err = d.inst.Eng.Exec(sql)
	case native:
		t, err = d.inst.QueryCtx(ctx, sql)
	default:
		t, rep, err = d.inst.QueryFusedReportedCtx(ctx, sql)
	}
	out := outcome{latency: time.Since(start), status: http.StatusOK}
	if err != nil {
		return out, err
	}
	if rep != nil {
		out.planCache, out.fallback = rep.PlanCache, rep.Fallback
		for _, d := range rep.Inlined {
			out.inlineSites += d.Sites
		}
	}
	if t != nil {
		out.rows = t.NumRows()
		if check {
			out.hash, out.scalar = tableHash(t)
		}
	}
	return out, nil
}

// served is one HTTP keep-alive client holding one session.
type served struct {
	base    string
	session string
	hc      *http.Client
}

func newServed(base string) (*served, error) {
	d := &served{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	var resp struct {
		Session string `json:"session"`
	}
	if _, _, err := d.post("/v1/session", map[string]any{}, &resp); err != nil {
		return nil, err
	}
	d.session = resp.Session
	return d, nil
}

func (d *served) close() { d.hc.CloseIdleConnections() }

// post sends one request and reads the whole reply; the returned
// duration covers exactly that. Decoding into out happens after the
// clock stops.
func (d *served) post(path string, body any, out any) (time.Duration, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return time.Since(start), nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, raw, &statusError{code: resp.StatusCode, body: string(raw)}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return lat, raw, fmt.Errorf("decode %s reply: %w", path, err)
		}
	}
	return lat, raw, nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (d *served) prepare(name, sql string) error {
	_, _, err := d.post("/v1/prepare", map[string]any{"session": d.session, "name": name, "sql": sql}, nil)
	return err
}

// queryReply is the part of the /v1/query response the benchmark reads.
// Rows stay raw unless a check needs them.
type queryReply struct {
	Rows      json.RawMessage `json:"rows"`
	RowCount  int             `json:"row_count"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Admission struct {
		WaitNS int64 `json:"wait_ns"`
	} `json:"admission"`
	Report *struct {
		PlanCache string `json:"plancache"`
		Fallback  bool   `json:"fallback"`
	} `json:"report"`
}

func (d *served) run(kind opKind, sql, handle string, native, check bool) (outcome, error) {
	if kind == opExec {
		lat, raw, err := d.post("/v1/exec", map[string]any{"session": d.session, "sql": sql}, nil)
		return outcome{latency: lat, respBytes: len(raw), status: statusOf(err)}, err
	}
	req := map[string]any{"session": d.session}
	if kind == opPrepared {
		req["stmt"] = handle
	} else {
		req["sql"] = sql
	}
	if native {
		req["mode"] = "native"
	}
	var reply queryReply
	lat, raw, err := d.post("/v1/query", req, &reply)
	out := outcome{latency: lat, respBytes: len(raw), status: statusOf(err),
		rows: reply.RowCount, execNS: reply.ElapsedNS, waitNS: reply.Admission.WaitNS}
	if err != nil {
		return out, err
	}
	if reply.Report != nil {
		out.planCache, out.fallback = reply.Report.PlanCache, reply.Report.Fallback
	}
	if check {
		var rows [][]json.RawMessage
		if err := json.Unmarshal(reply.Rows, &rows); err != nil {
			return out, fmt.Errorf("decode rows: %w", err)
		}
		for _, row := range rows {
			var b strings.Builder
			for _, cell := range row {
				b.Write(bytes.TrimSpace(cell))
				b.WriteByte('|')
			}
			out.hash = rowHash(out.hash, b.String())
		}
		if len(rows) == 1 && len(rows[0]) == 1 {
			out.scalar = string(bytes.TrimSpace(rows[0][0]))
		}
	}
	return out, nil
}

func statusOf(err error) int {
	if se, ok := err.(*statusError); ok {
		return se.code
	}
	if err != nil {
		return 0
	}
	return http.StatusOK
}

// startServer puts the default-configured serving plane in front of an
// instance on a loopback port.
func startServer(inst *engines.Instance) (*server.Server, string, error) {
	srv := server.New(inst, server.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, "http://" + addr, nil
}
