package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"qfusor"
	"qfusor/internal/bench"
	"qfusor/internal/obs"
	"qfusor/internal/workload"
)

// obsSmoke is the end-to-end check behind `make obs-smoke` and
// scripts/check.sh: it opens a real engine, runs fused queries with the
// diagnostics server and the UDF profiler live, then validates every
// endpoint over actual HTTP — the exposition parses and carries the
// required series, the flight recorder shows the queries, a recorded
// trace round-trips as structurally valid Chrome trace_event JSON, and
// the profiler reports hot lines.
func obsSmoke(w io.Writer) error {
	db, err := qfusor.Open(qfusor.MonetDB)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Define("@scalarudf\ndef smokeup(s: str) -> str:\n    t = s\n    for i in range(3):\n        t = t.upper()\n    return t\n"); err != nil {
		return err
	}
	if err := db.Exec("CREATE TABLE smoketbl (name string, n int)"); err != nil {
		return err
	}
	if err := db.Exec("INSERT INTO smoketbl VALUES ('ada', 1), ('grace', 2), ('edsger', 3)"); err != nil {
		return err
	}

	addr, err := db.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + addr
	fmt.Fprintf(w, "obs-smoke: diagnostics server at %s\n", base)
	db.StartUDFProfiler(2)
	db.SetSlowQueryThreshold(0) // every query lands in the slow log

	// Repeated runs: the second and later executions exercise the wrapper
	// and plan caches.
	const runs = 4
	for i := 0; i < runs; i++ {
		if _, err := db.Query("SELECT smokeup(name), n FROM smoketbl WHERE n >= 1"); err != nil {
			return fmt.Errorf("query run %d: %w", i, err)
		}
	}

	// /metrics: valid Prometheus 0.0.4 exposition with the series the
	// diagnostics plane promises.
	body, err := httpGet(base + "/metrics")
	if err != nil {
		return err
	}
	samples, err := obs.ParseExposition(string(body))
	if err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	required := []string{
		"qfusor_fallbacks",
		`qfusor_fallbacks{reason="breaker_open"}`,
		`qfusor_fallbacks{reason="panic"}`,
		`qfusor_fallbacks{reason="exec_error"}`,
		"qfusor_breaker_open",
		"qfusor_breaker_half_open",
		"qfusor_breaker_tracked",
		"qfusor_breaker_trips",
		"engine_morsels",
		"engine_morsel_rows",
		"ffi_proc_live_workers",
		"obs_flight_recorded",
		"pylite_profile_samples",
		`qfusor_regressions{kind="latency"}`,
		`qfusor_regressions{kind="rows"}`,
		`qfusor_regressions{kind="allocs"}`,
		`qfusor_regressions{kind="ffi"}`,
	}
	for _, name := range required {
		if _, ok := samples[name]; !ok {
			return fmt.Errorf("/metrics missing required series %s", name)
		}
	}
	// Label values must come from fixed sets: a per-section label grows
	// one series per distinct UDF chain ever fused.
	for k := range samples {
		if strings.Contains(k, "section=") {
			return fmt.Errorf("/metrics series %s carries an unbounded section label", k)
		}
	}
	fmt.Fprintf(w, "obs-smoke: /metrics ok (%d samples)\n", len(samples))

	// /debug/queries: the flight recorder saw every run, and at least one
	// record carries a trace.
	body, err = httpGet(base + "/debug/queries?n=16")
	if err != nil {
		return err
	}
	var queries struct {
		SlowThresholdNanos int64                 `json:"slow_threshold_ns"`
		Count              int                   `json:"count"`
		Queries            []*qfusor.QueryRecord `json:"queries"`
	}
	if err := json.Unmarshal(body, &queries); err != nil {
		return fmt.Errorf("/debug/queries: %w", err)
	}
	if queries.Count < runs {
		return fmt.Errorf("/debug/queries count = %d, want >= %d", queries.Count, runs)
	}
	var traceID int64 = -1
	for _, q := range queries.Queries {
		if q.HasTrace {
			traceID = q.ID
			break
		}
	}
	if traceID < 0 {
		return fmt.Errorf("no recorded query carries a trace (trace-all should be on while the server runs)")
	}
	// The slow log (threshold 0) caught them too.
	body, err = httpGet(base + "/debug/queries?slow=1")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &queries); err != nil {
		return fmt.Errorf("/debug/queries?slow=1: %w", err)
	}
	if queries.Count < runs {
		return fmt.Errorf("slow log count = %d, want >= %d (threshold 0)", queries.Count, runs)
	}
	fmt.Fprintf(w, "obs-smoke: /debug/queries ok (%d records, trace id %d)\n", queries.Count, traceID)

	// /debug/trace/<id>: structurally valid Chrome trace_event JSON.
	body, err = httpGet(fmt.Sprintf("%s/debug/trace/%d", base, traceID))
	if err != nil {
		return err
	}
	tf, err := obs.ParseChromeTrace(body)
	if err != nil {
		return fmt.Errorf("/debug/trace/%d: %w", traceID, err)
	}
	if len(tf.TraceEvents) < 2 {
		return fmt.Errorf("trace %d has %d events, want a span tree", traceID, len(tf.TraceEvents))
	}
	fmt.Fprintf(w, "obs-smoke: /debug/trace/%d ok (%d events)\n", traceID, len(tf.TraceEvents))

	// /debug/resources: every recorded query carries a ledger whose
	// row count matches what the engine actually produced.
	body, err = httpGet(base + "/debug/resources?n=16")
	if err != nil {
		return err
	}
	var resources struct {
		AccountingEnabled bool `json:"accounting_enabled"`
		Count             int  `json:"count"`
		Queries           []struct {
			QID       string                 `json:"qid"`
			SQL       string                 `json:"sql"`
			Resources *qfusor.LedgerSnapshot `json:"resources"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(body, &resources); err != nil {
		return fmt.Errorf("/debug/resources: %w", err)
	}
	if !resources.AccountingEnabled {
		return fmt.Errorf("/debug/resources reports accounting disabled (the default is on)")
	}
	if resources.Count < runs {
		return fmt.Errorf("/debug/resources count = %d, want >= %d", resources.Count, runs)
	}
	for _, q := range resources.Queries {
		if q.QID == "" {
			return fmt.Errorf("/debug/resources: query %q has no correlation id", q.SQL)
		}
		if q.Resources == nil || q.Resources.RowsOut != 3 {
			return fmt.Errorf("/debug/resources: query %q ledger rows_out != 3: %+v", q.SQL, q.Resources)
		}
		if q.Resources.FFICalls < 1 {
			return fmt.Errorf("/debug/resources: query %q ledger saw no FFI calls", q.SQL)
		}
	}
	fmt.Fprintf(w, "obs-smoke: /debug/resources ok (%d ledgers)\n", resources.Count)

	// /debug/regressions: the detector state is well-formed JSON with the
	// configured thresholds and a baseline for the repeated query.
	body, err = httpGet(base + "/debug/regressions")
	if err != nil {
		return err
	}
	var regress struct {
		Config struct {
			MinSamples int     `json:"min_samples"`
			Sigma      float64 `json:"sigma"`
			MinPct     float64 `json:"min_pct"`
		} `json:"config"`
		Baselines []struct {
			Key     string `json:"key"`
			Samples int64  `json:"samples"`
		} `json:"baselines"`
	}
	if err := json.Unmarshal(body, &regress); err != nil {
		return fmt.Errorf("/debug/regressions: %w", err)
	}
	if regress.Config.MinSamples < 1 || regress.Config.Sigma <= 0 {
		return fmt.Errorf("/debug/regressions config not populated: %+v", regress.Config)
	}
	foundBaseline := false
	for _, b := range regress.Baselines {
		if strings.Contains(b.Key, "smokeup") && b.Samples >= int64(runs) {
			foundBaseline = true
			break
		}
	}
	if !foundBaseline {
		return fmt.Errorf("/debug/regressions has no baseline for the repeated smoke query")
	}
	fmt.Fprintf(w, "obs-smoke: /debug/regressions ok (%d baselines)\n", len(regress.Baselines))

	// /debug/profile: the sampling profiler attributed samples to the UDF.
	body, err = httpGet(base + "/debug/profile")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "smokeup") {
		return fmt.Errorf("/debug/profile does not mention the hot UDF:\n%s", body)
	}
	fmt.Fprintln(w, "obs-smoke: /debug/profile ok")
	return nil
}

// vmSmoke is the check behind `make vm-smoke` and scripts/check.sh: a
// micro-run of E20 (the vectorized VM tier experiment) at tiny size,
// asserting that the VM tier actually engaged (vm_rows > 0 on the
// dispatch-bound sections, nothing silently bailed) and that the
// qfusor.vm.* counters it drives render as valid Prometheus
// exposition with the promised series.
func vmSmoke(w io.Writer) error {
	r := bench.NewRunner(workload.Size("tiny"), io.Discard)
	r.Quick = true
	res, err := r.VMTierBench()
	if err != nil {
		return fmt.Errorf("E20 micro-run: %w", err)
	}
	sections := 0
	for _, row := range res.Rows {
		if !strings.HasPrefix(row.Label, "section/") {
			continue
		}
		sections++
		if row.Metrics["vm_rows"] <= 0 {
			return fmt.Errorf("%s: VM tier never engaged (vm_rows = %v)", row.Label, row.Metrics["vm_rows"])
		}
		if row.Metrics["bail_rows"] > 0 {
			return fmt.Errorf("%s: dispatch-bound section bailed %v rows to the closure tier", row.Label, row.Metrics["bail_rows"])
		}
		if row.Metrics["section_speedup"] <= 1 {
			return fmt.Errorf("%s: VM tier slower than closure (section_speedup = %.2f)", row.Label, row.Metrics["section_speedup"])
		}
	}
	if sections == 0 {
		return fmt.Errorf("E20 produced no dispatch-bound section rows")
	}
	fmt.Fprintf(w, "vm-smoke: E20 micro-run ok (%d rows, %d dispatch-bound sections)\n", len(res.Rows), sections)

	samples, err := obs.ParseExposition(obs.Default.Snapshot().Prometheus())
	if err != nil {
		return fmt.Errorf("metrics exposition invalid: %w", err)
	}
	for _, name := range []string{
		"qfusor_vm_programs", "qfusor_vm_morsels", "qfusor_vm_rows", "qfusor_vm_bail_rows",
	} {
		if _, ok := samples[name]; !ok {
			return fmt.Errorf("metrics exposition missing series %s", name)
		}
	}
	if samples["qfusor_vm_programs"] < 1 || samples["qfusor_vm_rows"] < 1 {
		return fmt.Errorf("qfusor.vm.* counters never moved: programs=%v rows=%v",
			samples["qfusor_vm_programs"], samples["qfusor_vm_rows"])
	}
	fmt.Fprintf(w, "vm-smoke: qfusor.vm.* exposition ok (programs=%v morsels=%v rows=%v bail_rows=%v)\n",
		samples["qfusor_vm_programs"], samples["qfusor_vm_morsels"],
		samples["qfusor_vm_rows"], samples["qfusor_vm_bail_rows"])
	return nil
}

// serveSmoke is the end-to-end check behind `make serve-smoke` and
// scripts/check.sh: it starts the multi-session query server with
// deliberately tight admission limits, drives it over real HTTP —
// sessions, prepared statements, concurrent queries, an overload burst
// — then asserts the admission metrics moved (admitted, shed, queue
// depth) and that shutdown drains within the grace period.
func serveSmoke(w io.Writer) error {
	db, err := qfusor.Open(qfusor.MonetDB)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Define("@scalarudf\ndef srvwork(n: int) -> int:\n    acc = 0\n    for i in range(60):\n        acc = acc + (n + i) % 97\n    return acc\n"); err != nil {
		return err
	}
	if err := db.Exec("CREATE TABLE srvtbl (n int)"); err != nil {
		return err
	}
	var vals strings.Builder
	for i := 0; i < 3000; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "(%d)", i)
	}
	if err := db.Exec("INSERT INTO srvtbl VALUES " + vals.String()); err != nil {
		return err
	}

	const grace = 3 * time.Second
	addr, err := db.Serve("127.0.0.1:0", qfusor.ServerConfig{
		MaxConcurrent: 2,
		QueueDepth:    2,
		QueueTimeout:  300 * time.Millisecond,
		DrainGrace:    grace,
	})
	if err != nil {
		return err
	}
	base := "http://" + addr
	fmt.Fprintf(w, "serve-smoke: query server at %s\n", base)

	// Session + prepared statement over real HTTP.
	body, status, err := httpPostJSON(base+"/v1/session", map[string]any{"tenant": "smoke", "timeout_ms": 10000})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("open session: status %d err %v: %s", status, err, body)
	}
	var sess struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &sess); err != nil || sess.Session == "" {
		return fmt.Errorf("open session: bad body %s", body)
	}
	body, status, err = httpPostJSON(base+"/v1/prepare", map[string]any{
		"session": sess.Session, "name": "hot", "sql": "SELECT srvwork(n) FROM srvtbl WHERE n < 500",
	})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("prepare: status %d err %v: %s", status, err, body)
	}
	body, status, err = httpPostJSON(base+"/v1/query", map[string]any{"session": sess.Session, "stmt": "hot"})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("prepared query: status %d err %v: %s", status, err, body)
	}
	var qr struct {
		RowCount int `json:"row_count"`
	}
	if err := json.Unmarshal(body, &qr); err != nil || qr.RowCount != 500 {
		return fmt.Errorf("prepared query: row_count != 500: %s", body)
	}
	fmt.Fprintf(w, "serve-smoke: session %s prepared+query ok (%d rows)\n", sess.Session, qr.RowCount)

	// Overload burst: 16 concurrent queries against capacity 2 + queue 2.
	// With a 300ms queue timeout some must be rejected, some admitted.
	const burst = 16
	var (
		mu            sync.Mutex
		okN, shedN    int
		otherStatuses []int
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, st, err := httpPostJSON(base+"/v1/query", map[string]any{
				"tenant": "smoke", "sql": "SELECT srvwork(n) FROM srvtbl",
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && st == http.StatusOK:
				okN++
			case st == http.StatusServiceUnavailable || st == http.StatusTooManyRequests:
				shedN++
			default:
				otherStatuses = append(otherStatuses, st)
				fmt.Fprintf(w, "serve-smoke: unexpected burst response %d: %s\n", st, b)
			}
		}()
	}
	wg.Wait()
	if len(otherStatuses) > 0 {
		return fmt.Errorf("burst: unexpected statuses %v", otherStatuses)
	}
	if okN == 0 || shedN == 0 {
		return fmt.Errorf("burst of %d vs capacity 2: want both admitted and rejected, got ok=%d shed=%d", burst, okN, shedN)
	}
	fmt.Fprintf(w, "serve-smoke: overload burst ok (admitted=%d rejected=%d)\n", okN, shedN)

	// /metrics: the admission series exist and moved.
	body, err = httpGet(base + "/metrics")
	if err != nil {
		return err
	}
	samples, err := obs.ParseExposition(string(body))
	if err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	for _, name := range []string{"server_admitted", "server_rejected", "server_queue_depth", "server_sessions"} {
		if _, ok := samples[name]; !ok {
			return fmt.Errorf("/metrics missing required series %s", name)
		}
	}
	if samples["server_admitted"] < 1 {
		return fmt.Errorf("server_admitted never moved")
	}
	shedTotal := 0.0
	for k, v := range samples {
		if strings.HasPrefix(k, "server_shed{reason=") {
			shedTotal += v
		}
	}
	if shedTotal < 1 {
		return fmt.Errorf("no server_shed{reason=...} series moved during the burst")
	}
	fmt.Fprintf(w, "serve-smoke: /metrics ok (admitted=%v shed=%v)\n", samples["server_admitted"], shedTotal)

	// /debug/sessions: the session is listed and the census agrees.
	body, err = httpGet(base + "/debug/sessions")
	if err != nil {
		return err
	}
	var sessions struct {
		Count     int `json:"count"`
		Admission struct {
			Admitted  uint64 `json:"admitted"`
			ShedTotal uint64 `json:"shed_total"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &sessions); err != nil {
		return fmt.Errorf("/debug/sessions: %w", err)
	}
	if sessions.Count < 1 || sessions.Admission.Admitted < 1 || sessions.Admission.ShedTotal < 1 {
		return fmt.Errorf("/debug/sessions census wrong: %s", body)
	}
	fmt.Fprintln(w, "serve-smoke: /debug/sessions ok")

	// Drain: Close must complete within the grace period (plus slack for
	// the HTTP teardown) with no queries in flight.
	closeStart := time.Now()
	db.Close()
	if d := time.Since(closeStart); d > grace+2*time.Second {
		return fmt.Errorf("drain took %s, want <= grace %s + slack", d, grace)
	}
	fmt.Fprintf(w, "serve-smoke: drain ok (%s)\n", time.Since(closeStart).Round(time.Millisecond))
	return nil
}

// httpPostJSON posts a JSON body and returns (body, status, transport
// error). Non-2xx statuses are returned, not folded into err — the
// smoke test asserts on rejection statuses.
func httpPostJSON(url string, v any) ([]byte, int, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	cl := &http.Client{Timeout: 30 * time.Second}
	resp, err := cl.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return body, resp.StatusCode, nil
}

// httpGet fetches a URL with a short deadline and returns its body,
// failing on any non-200 status.
func httpGet(url string) ([]byte, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// inlineSmoke is the check behind `make inline-smoke` and
// scripts/check.sh: on a DB at the default tier, which inlines every
// call whose UDF body translates, it runs a guarded straight-line UDF
// query (plus an opaque UDF the inliner must refuse), and asserts the
// Froid contract end to end — results bit-identical to native, zero FFI
// crossings for the inlined query, the qfusor.inline.* decision
// counters moving and rendering as valid Prometheus exposition, and the
// vectorized evaluator's CSE engaging on the nested call's repeated
// subtrees.
func inlineSmoke(w io.Writer) error {
	db, err := qfusor.Open(qfusor.MonetDB)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Define(`
@scalarudf
def iboost(x: int) -> int:
    if x is None:
        return None
    return (x * 37 + 11) * 3 - x

@scalarudf
def iwork(n: int) -> int:
    if n is None:
        return 0
    acc = 0
    for i in range(4):
        acc = acc + n + i
    return acc

@scalarudf
def fgain(x: float) -> float:
    if x is None:
        return None
    return (x * 1.5 + 2.0) * 0.5 - x
`); err != nil {
		return err
	}
	if err := db.Exec("CREATE TABLE itbl (n int, f float)"); err != nil {
		return err
	}
	var vals strings.Builder
	for i := 0; i < 500; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		if i%23 == 0 {
			vals.WriteString("(NULL, NULL)")
		} else {
			fmt.Fprintf(&vals, "(%d, %g)", i, float64(i)*0.5)
		}
	}
	if err := db.Exec("INSERT INTO itbl VALUES " + vals.String()); err != nil {
		return err
	}

	const sql = "SELECT n, iboost(iboost(n)) AS v FROM itbl ORDER BY n"
	native, err := db.QueryNative(sql)
	if err != nil {
		return err
	}
	ffi0 := obs.Default.Counter("ffi.udf.calls").Value()
	got, err := db.Query(sql)
	if err != nil {
		return err
	}
	if rk, nk := smokeTableKey(got), smokeTableKey(native); rk != nk {
		return fmt.Errorf("inlined result diverges from native:\ninlined:\n%s\nnative:\n%s", rk, nk)
	}
	if d := obs.Default.Counter("ffi.udf.calls").Value() - ffi0; d != 0 {
		return fmt.Errorf("inlined query crossed the FFI %d times (want 0)", d)
	}
	fmt.Fprintf(w, "inline-smoke: inlined query ok (%d rows, native-identical, 0 FFI crossings)\n", got.NumRows())

	// The loop-bearing UDF must be classified opaque and still run right.
	opq, err := db.Query("SELECT n, iwork(n) AS v FROM itbl ORDER BY n")
	if err != nil {
		return err
	}
	opqNative, err := db.QueryNative("SELECT n, iwork(n) AS v FROM itbl ORDER BY n")
	if err != nil {
		return err
	}
	if smokeTableKey(opq) != smokeTableKey(opqNative) {
		return fmt.Errorf("opaque-UDF query diverges from native")
	}
	fmt.Fprintln(w, "inline-smoke: opaque fallback ok (loop-bearing UDF refused by the inliner, results native-identical)")

	// The float UDF uses its argument twice, so the nested call inlines
	// to a tree with a repeated subtree — the shape the expression
	// compiler shares one register for (engine_vec_cse_hits counts the
	// evaluations that reuse avoids, per morsel, whatever the kinds).
	const fsql = "SELECT n, fgain(fgain(f)) AS v FROM itbl ORDER BY n"
	fgot, err := db.Query(fsql)
	if err != nil {
		return err
	}
	fnative, err := db.QueryNative(fsql)
	if err != nil {
		return err
	}
	if smokeTableKey(fgot) != smokeTableKey(fnative) {
		return fmt.Errorf("inlined float query diverges from native")
	}

	samples, err := obs.ParseExposition(obs.Default.Snapshot().Prometheus())
	if err != nil {
		return fmt.Errorf("metrics exposition invalid: %w", err)
	}
	for _, name := range []string{
		"qfusor_inline_udfs", "qfusor_inline_opaque", "qfusor_inline_sites",
		"qfusor_inline_queries", "qfusor_inline_full", "engine_vec_cse_hits",
	} {
		if _, ok := samples[name]; !ok {
			return fmt.Errorf("metrics exposition missing series %s", name)
		}
	}
	if samples["qfusor_inline_udfs"] < 1 || samples["qfusor_inline_sites"] < 1 || samples["qfusor_inline_full"] < 1 {
		return fmt.Errorf("qfusor.inline.* counters never moved: udfs=%v sites=%v full=%v",
			samples["qfusor_inline_udfs"], samples["qfusor_inline_sites"], samples["qfusor_inline_full"])
	}
	if samples["qfusor_inline_opaque"] < 1 {
		return fmt.Errorf("opaque UDF was not recorded as an inliner refusal (opaque=%v)", samples["qfusor_inline_opaque"])
	}
	if samples["engine_vec_cse_hits"] < 1 {
		return fmt.Errorf("vectorized CSE never engaged on the nested inlined float call (hits=%v)", samples["engine_vec_cse_hits"])
	}
	fmt.Fprintf(w, "inline-smoke: qfusor.inline.* exposition ok (udfs=%v opaque=%v sites=%v queries=%v full=%v cse_hits=%v)\n",
		samples["qfusor_inline_udfs"], samples["qfusor_inline_opaque"], samples["qfusor_inline_sites"],
		samples["qfusor_inline_queries"], samples["qfusor_inline_full"], samples["engine_vec_cse_hits"])
	return nil
}

// smokeTableKey flattens a result table to a comparable string (schema
// header, then every cell, NULL-distinct).
func smokeTableKey(t *qfusor.Table) string {
	var b strings.Builder
	for i, f := range t.Schema {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s", f.Name, f.Kind)
	}
	b.WriteByte('\n')
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteByte('|')
			}
			if c.IsNull(r) {
				b.WriteString("<null>")
			} else {
				b.WriteString(c.Get(r).String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
