package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
)

// errorBody is the JSON error envelope every endpoint uses.
type errorBody struct {
	Error string `json:"error"`
	// Reason is the admission rejection reason when the error came from
	// the admission controller ("" otherwise).
	Reason string `json:"reason,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // best-effort write to client
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeAdmissionErr maps an AdmissionError to its HTTP status (429 for
// throttled tenants, 503 for overload and drain) with a Retry-After
// hint derived from the controller's backoff base.
func writeAdmissionErr(w http.ResponseWriter, ae *resilience.AdmissionError) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, ae.Code, errorBody{Error: ae.Error(), Reason: ae.Reason, Tenant: ae.Tenant})
}

// maxBodyBytes caps every request body. UDF source is the largest thing
// a client sends (the paper workloads' whole library is under 10 KB),
// so 1 MiB leaves ample room while bounding what one request can make
// the server read.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes with
// unknown-field rejection. On failure it writes the error response (413
// for an oversized body, 400 otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, "bad request body: "+err.Error())
	return false
}

// ---- sessions ----

type sessionOpenRequest struct {
	Tenant      string `json:"tenant"`
	TimeoutMS   int64  `json:"timeout_ms"`
	Tier        string `json:"tier"`
	Parallelism int    `json:"parallelism"`
	Morsel      int    `json:"morsel"`
}

type sessionOpenResponse struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant,omitempty"`
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if err := faultinject.Fire(FaultAccept); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req sessionOpenRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tier, err := core.ParseTier(req.Tier)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.adm.Draining() {
		writeAdmissionErr(w, &resilience.AdmissionError{
			Tenant: req.Tenant, Reason: resilience.ReasonDraining, Code: http.StatusServiceUnavailable,
		})
		return
	}
	if tier == core.TierAuto {
		tier = "" // keep the engine default
	}
	ss, err := s.sessions.open(s.inst, SessionOptions{
		Tenant:      req.Tenant,
		Timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
		Tier:        tier,
		Parallelism: req.Parallelism,
		Morsel:      req.Morsel,
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, sessionOpenResponse{Session: ss.id, Tenant: ss.opts.Tenant})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	id := r.PathValue("id")
	if !s.sessions.close(id) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

type prepareRequest struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	SQL     string `json:"sql"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	var req prepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "prepare needs name and sql")
		return
	}
	ss, ok := s.sessions.get(req.Session)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
		return
	}
	ss.prepare(req.Name, req.SQL)
	writeJSON(w, http.StatusOK, map[string]string{"prepared": req.Name})
}

// ---- queries ----

type queryRequest struct {
	Session string `json:"session"`
	// Tenant attributes a sessionless query (ignored when Session is
	// set — the session's tenant wins).
	Tenant string `json:"tenant"`
	// SQL is the query text; Stmt names a prepared statement instead.
	SQL  string `json:"sql"`
	Stmt string `json:"stmt"`
	// Mode selects the execution path: "fused" (default), "native", or
	// "analyze" (EXPLAIN ANALYZE — returns the rendered span tree too).
	Mode string `json:"mode"`
	// TimeoutMS overrides the session/server timeout for this query.
	TimeoutMS int64 `json:"timeout_ms"`
}

type admissionBody struct {
	WaitNS     int64  `json:"wait_ns"`
	QueueDepth int    `json:"queue_depth"`
	Tenant     string `json:"tenant,omitempty"`
}

type queryResponse struct {
	Columns   []string      `json:"columns"`
	Rows      [][]any       `json:"rows"`
	RowCount  int           `json:"row_count"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Admission admissionBody `json:"admission"`
	Report    *reportBody   `json:"report,omitempty"`
	Analyze   string        `json:"analyze,omitempty"`
}

// reportBody is the optimizer report slice a client sees.
type reportBody struct {
	Sections       int      `json:"sections"`
	Wrappers       []string `json:"wrappers,omitempty"`
	PlanCache      string   `json:"plancache,omitempty"`
	Fallback       bool     `json:"fallback,omitempty"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
}

// resolveQuery turns a queryRequest into (session, sql, tenant).
// Sessionless queries run on the shared base instance under the
// request's tenant.
func (s *Server) resolveQuery(req *queryRequest) (*session, string, string, error) {
	var ss *session
	if req.Session != "" {
		var ok bool
		ss, ok = s.sessions.get(req.Session)
		if !ok {
			return nil, "", "", fmt.Errorf("unknown session %q", req.Session)
		}
	}
	sql := req.SQL
	if req.Stmt != "" {
		if ss == nil {
			return nil, "", "", fmt.Errorf("stmt %q needs a session (prepared statements are per-session)", req.Stmt)
		}
		var ok bool
		sql, ok = ss.statement(req.Stmt)
		if !ok {
			return nil, "", "", fmt.Errorf("unknown prepared statement %q", req.Stmt)
		}
	}
	if sql == "" {
		return nil, "", "", errors.New("query needs sql or stmt")
	}
	tenant := req.Tenant
	if ss != nil {
		tenant = ss.opts.Tenant
	}
	return ss, sql, tenant, nil
}

// admit runs the admission controller for one request, publishing
// metrics either way. On rejection it writes the HTTP error and
// returns ok=false.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context, tenant string, est float64) (release func(), info *obs.AdmissionInfo, ok bool) {
	if err := faultinject.Fire(FaultAdmit); err != nil {
		shedCounter("injected").Inc()
		mRejected.Inc()
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return nil, nil, false
	}
	release, wait, err := s.adm.Acquire(ctx, tenant, est)
	st := s.adm.Snapshot()
	gQueueDepth.Set(int64(st.Waiting))
	gInflight.Set(int64(st.Inflight))
	if err != nil {
		mRejected.Inc()
		var ae *resilience.AdmissionError
		if errors.As(err, &ae) {
			shedCounter(ae.Reason).Inc()
			writeAdmissionErr(w, ae)
		} else {
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		}
		return nil, nil, false
	}
	mAdmitted.Inc()
	hAdmitWait.Observe(float64(wait.Nanoseconds()))
	return release, &obs.AdmissionInfo{Tenant: tenant, Wait: wait, QueueDepth: st.Waiting}, true
}

// queryContext derives the execution context for one admitted query:
// the client's request context, hard-cancelled when the server's drain
// grace expires, bounded by the query/session/server timeout. The
// returned stop must be deferred.
func (s *Server) queryContext(r *http.Request, ss *session, reqTimeoutMS int64) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(r.Context())
	unhook := context.AfterFunc(s.base, func() { cancel(context.Cause(s.base)) })
	timeout := s.cfg.DefaultTimeout
	if ss != nil && ss.opts.Timeout > 0 {
		timeout = ss.opts.Timeout
	}
	if reqTimeoutMS > 0 {
		timeout = time.Duration(reqTimeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return ctx, func() { unhook(); cancel(nil) }
	}
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { tcancel(); unhook(); cancel(nil) }
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if err := faultinject.Fire(FaultAccept); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Mode != "" && req.Mode != "fused" && req.Mode != "native" && req.Mode != "analyze" {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (fused|native|analyze)", req.Mode))
		return
	}
	ss, sql, tenant, err := s.resolveQuery(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}

	release, info, ok := s.admit(w, r.Context(), tenant, s.costs.estimate(sql))
	if !ok {
		return
	}
	defer release()
	if ss != nil {
		info.Session = ss.id
		ss.touch()
	}

	ctx, stop := s.queryContext(r, ss, req.TimeoutMS)
	defer stop()
	ctx = obs.ContextWithAdmission(ctx, info)

	inst := s.inst
	if ss != nil {
		inst = ss.inst
	}
	start := time.Now()
	var (
		t       *data.Table
		rep     *core.Report
		analyze string
	)
	switch req.Mode {
	case "native":
		t, err = inst.QueryCtx(ctx, sql)
	case "analyze":
		var a *core.Analysis
		a, err = inst.QueryAnalyzeCtx(ctx, sql)
		if err == nil {
			t, analyze = a.Result, a.Render()
			rep = &a.Report
		}
	default:
		t, rep, err = inst.QueryFusedReportedCtx(ctx, sql)
	}
	elapsed := time.Since(start)
	s.costs.observe(sql, float64(elapsed.Nanoseconds()))
	s.adm.ObserveResult(tenant, err != nil)
	st := s.adm.Snapshot()
	gQueueDepth.Set(int64(st.Waiting))
	gInflight.Set(int64(st.Inflight - 1)) // this query still holds its slot

	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = http.StatusRequestTimeout
		}
		writeErr(w, code, err.Error())
		return
	}

	resp := queryResponse{
		Columns:   tableColumns(t),
		Rows:      tableRows(t),
		RowCount:  t.NumRows(),
		ElapsedNS: elapsed.Nanoseconds(),
		Admission: admissionBody{WaitNS: info.Wait.Nanoseconds(), QueueDepth: info.QueueDepth, Tenant: tenant},
		Analyze:   analyze,
	}
	if rep != nil {
		resp.Report = &reportBody{
			Sections: rep.Sections, Wrappers: rep.Wrappers, PlanCache: rep.PlanCache,
			Fallback: rep.Fallback, FallbackReason: rep.FallbackReason,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- DDL / DML / UDF definition ----

type execRequest struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant"`
	SQL     string `json:"sql"`
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if err := faultinject.Fire(FaultAccept); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req execRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "exec needs sql")
		return
	}
	ss, tenant := s.resolveSession(req.Session, req.Tenant)
	if req.Session != "" && ss == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
		return
	}
	release, _, ok := s.admit(w, r.Context(), tenant, s.costs.estimate(req.SQL))
	if !ok {
		return
	}
	defer release()
	if ss != nil {
		ss.touch()
	}
	start := time.Now()
	err := s.inst.Eng.Exec(req.SQL)
	s.costs.observe(req.SQL, float64(time.Since(start).Nanoseconds()))
	s.adm.ObserveResult(tenant, err != nil)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

type defineRequest struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant"`
	Source  string `json:"source"`
}

// handleDefine executes UDF module source (the serving-plane CREATE
// FUNCTION): definitions land in the shared catalog, bump the UDF
// epoch, and thereby fence every cached plan and wrapper that calls a
// redefined UDF.
func (s *Server) handleDefine(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if err := faultinject.Fire(FaultAccept); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req defineRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "define needs source")
		return
	}
	ss, tenant := s.resolveSession(req.Session, req.Tenant)
	if req.Session != "" && ss == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
		return
	}
	release, _, ok := s.admit(w, r.Context(), tenant, 0)
	if !ok {
		return
	}
	defer release()
	if ss != nil {
		ss.touch()
	}
	err := s.inst.Define(req.Source)
	s.adm.ObserveResult(tenant, err != nil)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// resolveSession is the exec/define session lookup: a named session's
// tenant wins over the request tenant.
func (s *Server) resolveSession(id, tenant string) (*session, string) {
	if id == "" {
		return nil, tenant
	}
	ss, ok := s.sessions.get(id)
	if !ok {
		return nil, tenant
	}
	return ss, ss.opts.Tenant
}

// ---- debug ----

// sessionsPayload is the /debug/sessions response.
type sessionsPayload struct {
	Count     int                       `json:"count"`
	Sessions  []sessionInfo             `json:"sessions"`
	Admission resilience.AdmissionState `json:"admission"`
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sessionsPayload{
		Count:     len(s.sessions.list()),
		Sessions:  s.sessions.list(),
		Admission: s.adm.Snapshot(),
	})
}

// ---- table marshalling ----

func tableColumns(t *data.Table) []string {
	cols := make([]string, len(t.Schema))
	for i, f := range t.Schema {
		cols[i] = f.Name
	}
	return cols
}

func tableRows(t *data.Table) [][]any {
	rows := make([][]any, t.NumRows())
	for r := range rows {
		row := make([]any, len(t.Cols))
		for c, col := range t.Cols {
			row[c] = jsonValue(col.Get(r))
		}
		rows[r] = row
	}
	return rows
}

// jsonValue lowers a data.Value to a JSON-native value (containers
// render through their canonical string form).
func jsonValue(v data.Value) any {
	switch v.Kind {
	case data.KindNull:
		return nil
	case data.KindInt:
		return v.I
	case data.KindFloat:
		return v.F
	case data.KindString:
		return v.S
	case data.KindBool:
		return v.AsBool()
	default:
		return v.String()
	}
}
