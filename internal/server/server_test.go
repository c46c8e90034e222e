package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"qfusor/internal/engines"
	"qfusor/internal/resilience"
	"qfusor/internal/server"
)

// udfV1 / udfV2 are the two bodies the DDL chaos flips between. Their
// outputs are disjoint for every input (2n+1 is odd, 3n*2 is even), so
// a result mixing versions is detectable row by row.
const (
	udfV1 = "@scalarudf\ndef twist(n: int) -> int:\n    return n * 2 + 1\n"
	udfV2 = "@scalarudf\ndef twist(n: int) -> int:\n    return n * 3 * 2\n"
)

// churnUDF is a deliberately slow scalar (the overload tests need
// queries that hold their admission slot for a while).
const churnUDF = "@scalarudf\ndef churn(n: int) -> int:\n    acc = 0\n    for i in range(80):\n        acc = acc + (n + i) % 97\n    return acc\n"

// heavySQL holds an admission slot long enough for a burst to queue.
const heavySQL = "SELECT churn(n) FROM btbl"

// launchInstance builds a MonetDB-profile engine with the twist UDF
// (v1), the churn UDF, a 120-row table for differential checks and a
// 2000-row table for overload pressure.
func launchInstance(t *testing.T) *engines.Instance {
	t.Helper()
	inst := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	t.Cleanup(inst.Close)
	if err := inst.Define(udfV1); err != nil {
		t.Fatal(err)
	}
	if err := inst.Define(churnUDF); err != nil {
		t.Fatal(err)
	}
	if err := inst.Eng.Exec("CREATE TABLE ctbl (n int)"); err != nil {
		t.Fatal(err)
	}
	var vals strings.Builder
	for i := 0; i < 120; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "(%d)", i)
	}
	if err := inst.Eng.Exec("INSERT INTO ctbl VALUES " + vals.String()); err != nil {
		t.Fatal(err)
	}
	vals.Reset()
	for i := 0; i < 2000; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "(%d)", i)
	}
	if err := inst.Eng.Exec("CREATE TABLE btbl (n int)"); err != nil {
		t.Fatal(err)
	}
	if err := inst.Eng.Exec("INSERT INTO btbl VALUES " + vals.String()); err != nil {
		t.Fatal(err)
	}
	if err := inst.Eng.Exec("CREATE TABLE scratch (v int)"); err != nil {
		t.Fatal(err)
	}
	return inst
}

// startServer runs a server over a fresh instance and returns its base
// URL. Closing is the test's business when it exercises drain; a
// cleanup close is registered for the rest (Close is idempotent).
func startServer(t *testing.T, cfg server.Config) (*server.Server, string, *engines.Instance) {
	t.Helper()
	inst := launchInstance(t)
	srv := server.New(inst, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr, inst
}

// postJSON posts a JSON body; non-2xx statuses are data, not errors.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s read: %v", url, err)
	}
	return resp.StatusCode, body
}

// queryBody is the slice of the query response the tests read.
type queryBody struct {
	Rows      [][]any `json:"rows"`
	RowCount  int     `json:"row_count"`
	Admission struct {
		WaitNS     int64 `json:"wait_ns"`
		QueueDepth int   `json:"queue_depth"`
	} `json:"admission"`
	Report *struct {
		Sections  int    `json:"sections"`
		PlanCache string `json:"plancache"`
	} `json:"report"`
	Analyze string `json:"analyze"`
	Error   string `json:"error"`
	Reason  string `json:"reason"`
}

func decodeQuery(t *testing.T, body []byte) queryBody {
	t.Helper()
	var q queryBody
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return q
}

// rowsKey canonicalizes a rows array for equality comparison.
func rowsKey(rows [][]any) string {
	b, _ := json.Marshal(rows)
	return string(b)
}

// openSession opens a session and returns its ID.
func openSession(t *testing.T, base string, req map[string]any) string {
	t.Helper()
	status, body := postJSON(t, base+"/v1/session", req)
	if status != http.StatusOK {
		t.Fatalf("open session: %d %s", status, body)
	}
	var resp struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Session == "" {
		t.Fatalf("open session body: %s", body)
	}
	return resp.Session
}

// diffSQL chains the UDF so fusion discovers a section; results are
// fully determined by which twist version executed.
const diffSQL = "SELECT twist(twist(n)) FROM ctbl ORDER BY n"

func TestSessionLifecycle(t *testing.T) {
	_, base, _ := startServer(t, server.Config{})

	sid := openSession(t, base, map[string]any{"tenant": "alpha", "timeout_ms": 5000})
	status, body := postJSON(t, base+"/v1/prepare", map[string]any{
		"session": sid, "name": "diff", "sql": diffSQL,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}

	// Query via the prepared statement.
	status, body = postJSON(t, base+"/v1/query", map[string]any{"session": sid, "stmt": "diff"})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	q := decodeQuery(t, body)
	if q.RowCount != 120 {
		t.Fatalf("row_count = %d, want 120", q.RowCount)
	}
	if q.Report == nil || q.Report.Sections < 1 {
		t.Fatalf("fused query reported no sections: %s", body)
	}

	// Prepared statements are per-session: another session cannot see it.
	other := openSession(t, base, map[string]any{})
	status, body = postJSON(t, base+"/v1/query", map[string]any{"session": other, "stmt": "diff"})
	if status != http.StatusBadRequest {
		t.Fatalf("cross-session stmt: %d %s, want 400", status, body)
	}

	// /debug/sessions lists both with the tenant attributed.
	resp, err := http.Get(base + "/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sessions struct {
		Count    int `json:"count"`
		Sessions []struct {
			ID      string `json:"id"`
			Tenant  string `json:"tenant"`
			Queries int64  `json:"queries"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(listing, &sessions); err != nil {
		t.Fatalf("/debug/sessions: %v (%s)", err, listing)
	}
	if sessions.Count != 2 {
		t.Fatalf("session count = %d, want 2: %s", sessions.Count, listing)
	}
	found := false
	for _, s := range sessions.Sessions {
		if s.ID == sid {
			found = true
			if s.Tenant != "alpha" || s.Queries != 1 {
				t.Fatalf("session row wrong: %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("session %s not listed: %s", sid, listing)
	}

	// Close: the session is gone, its statements with it.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/session/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("close session: %d", dresp.StatusCode)
	}
	status, body = postJSON(t, base+"/v1/query", map[string]any{"session": sid, "sql": diffSQL})
	if status != http.StatusBadRequest {
		t.Fatalf("query on closed session: %d %s, want 400", status, body)
	}
}

// TestSessionOptionsPartition: sessions pinning different tiers and
// parallelism produce identical results to the shared instance's
// native path — the per-session views share one catalog but never
// cross-contaminate plans (the plan cache partitions by options and
// worker count).
func TestSessionOptionsPartition(t *testing.T) {
	_, base, inst := startServer(t, server.Config{})

	native, err := inst.Query(diffSQL)
	if err != nil {
		t.Fatal(err)
	}
	if native.NumRows() != 120 {
		t.Fatalf("native rows = %d", native.NumRows())
	}

	variants := []map[string]any{
		{"tier": "vm"},
		{"tier": "closure"},
		{"parallelism": 1},
		{"tier": "vm", "parallelism": 1, "morsel": 16},
	}
	var keys []string
	for _, v := range variants {
		sid := openSession(t, base, v)
		status, body := postJSON(t, base+"/v1/query", map[string]any{"session": sid, "sql": diffSQL})
		if status != http.StatusOK {
			t.Fatalf("variant %v: %d %s", v, status, body)
		}
		keys = append(keys, rowsKey(decodeQuery(t, body).Rows))
	}
	// And the sessionless default path.
	status, body := postJSON(t, base+"/v1/query", map[string]any{"sql": diffSQL})
	if status != http.StatusOK {
		t.Fatalf("sessionless: %d %s", status, body)
	}
	keys = append(keys, rowsKey(decodeQuery(t, body).Rows))

	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("variant %d result differs:\n%s\nvs\n%s", i, keys[i], keys[0])
		}
	}
}

// TestQueryModes: fused (default), native and analyze all serve the
// same rows; analyze also returns the rendered span tree carrying the
// admission line.
func TestQueryModes(t *testing.T) {
	_, base, _ := startServer(t, server.Config{})
	sid := openSession(t, base, map[string]any{"tenant": "modes"})

	var keys []string
	for _, mode := range []string{"", "native", "analyze"} {
		status, body := postJSON(t, base+"/v1/query", map[string]any{
			"session": sid, "sql": diffSQL, "mode": mode,
		})
		if status != http.StatusOK {
			t.Fatalf("mode %q: %d %s", mode, status, body)
		}
		q := decodeQuery(t, body)
		keys = append(keys, rowsKey(q.Rows))
		if mode == "analyze" {
			if !strings.Contains(q.Analyze, "phase:admission") {
				t.Fatalf("analyze render lacks phase:admission span:\n%s", q.Analyze)
			}
			if !strings.Contains(q.Analyze, "admission: tenant=modes") {
				t.Fatalf("analyze render lacks admission line:\n%s", q.Analyze)
			}
		}
	}
	if keys[1] != keys[0] || keys[2] != keys[0] {
		t.Fatalf("modes disagree: %v", keys)
	}
}

// TestOversizedBodyRejected: a request body over the 1 MiB cap gets a
// 413 with the JSON error envelope, and the server keeps serving.
func TestOversizedBodyRejected(t *testing.T) {
	_, base, _ := startServer(t, server.Config{})
	big := strings.Repeat("x", 1<<20)
	for path, body := range map[string]map[string]any{
		"/v1/query":  {"sql": "SELECT 1 -- " + big},
		"/v1/define": {"source": "# " + big},
	} {
		status, resp := postJSON(t, base+path, body)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %.200s", path, status, resp)
		}
		if q := decodeQuery(t, resp); !strings.Contains(q.Error, "too large") {
			t.Fatalf("%s: error body %q does not say the body is too large", path, q.Error)
		}
	}
	status, resp := postJSON(t, base+"/v1/query", map[string]any{"sql": diffSQL})
	if status != http.StatusOK {
		t.Fatalf("query after oversized bodies: %d %s", status, resp)
	}
}

// TestAdmissionOverloadHTTP: a burst beyond capacity gets a mix of 200s
// and typed 503s over real HTTP, admitted queries never wait past the
// queue timeout (plus scheduling slack), and the census adds up.
func TestAdmissionOverloadHTTP(t *testing.T) {
	const queueTimeout = 300 * time.Millisecond
	srv, base, _ := startServer(t, server.Config{
		Admission: resilience.AdmissionConfig{
			MaxConcurrent: 1, QueueDepth: 2, QueueTimeout: queueTimeout,
		},
	})

	const burst = 10
	type result struct {
		status int
		q      queryBody
	}
	results := make(chan result, burst)
	for i := 0; i < burst; i++ {
		go func() {
			status, body := postJSON(t, base+"/v1/query", map[string]any{
				"tenant": "burst", "sql": heavySQL,
			})
			results <- result{status, decodeQuery(t, body)}
		}()
	}
	ok, rejected := 0, 0
	for i := 0; i < burst; i++ {
		r := <-results
		switch r.status {
		case http.StatusOK:
			ok++
			if wait := time.Duration(r.q.Admission.WaitNS); wait > queueTimeout+2*time.Second {
				t.Errorf("admitted query waited %s, beyond the %s queue timeout", wait, queueTimeout)
			}
		case http.StatusServiceUnavailable:
			rejected++
			switch r.q.Reason {
			case resilience.ReasonQueueFull, resilience.ReasonQueueTimeout, resilience.ReasonShedCost:
			default:
				t.Errorf("503 with unexpected reason %q: %+v", r.q.Reason, r.q)
			}
		default:
			t.Errorf("unexpected status %d: %+v", r.status, r.q)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Fatalf("burst %d vs capacity 1+2: want both outcomes, got ok=%d rejected=%d", burst, ok, rejected)
	}
	st := srv.Admission().Snapshot()
	if st.Admitted < uint64(ok) || st.ShedTotal < uint64(rejected) {
		t.Fatalf("census disagrees with observations: ok=%d rejected=%d census=%+v", ok, rejected, st)
	}
}

// TestTenantThrottled: a tenant whose queries keep failing trips its
// "tenant:" breaker circuit and gets 429s at the door, while other
// tenants keep being served.
func TestTenantThrottled(t *testing.T) {
	_, base, _ := startServer(t, server.Config{})

	// The engine breaker trips a key after 3 consecutive failures.
	for i := 0; i < 3; i++ {
		status, body := postJSON(t, base+"/v1/query", map[string]any{
			"tenant": "noisy", "sql": "SELECT nosuchudf(n) FROM ctbl",
		})
		if status == http.StatusOK {
			t.Fatalf("bogus query %d succeeded: %s", i, body)
		}
	}
	status, body := postJSON(t, base+"/v1/query", map[string]any{"tenant": "noisy", "sql": diffSQL})
	if status != http.StatusTooManyRequests {
		t.Fatalf("throttled tenant got %d, want 429: %s", status, body)
	}
	if q := decodeQuery(t, body); q.Reason != resilience.ReasonTenantThrottled {
		t.Fatalf("reason = %q, want %s", q.Reason, resilience.ReasonTenantThrottled)
	}
	// An innocent tenant is unaffected.
	status, body = postJSON(t, base+"/v1/query", map[string]any{"tenant": "quiet", "sql": diffSQL})
	if status != http.StatusOK {
		t.Fatalf("innocent tenant got %d: %s", status, body)
	}
}
