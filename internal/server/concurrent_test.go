package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/resilience"
	"qfusor/internal/server"
	"qfusor/internal/workload"
)

// The concurrency differential: the three reproducers of the defects
// benchmark/README.md records ("Defects found while building it"), run
// by two callers at once on one engine — embedded on the Instance and
// over HTTP. Every result must equal the native result as a row
// multiset, and a request whose own context is live must never be
// cancelled. Before per-query UDF clones, small inputs ran on the
// catalog's UDF and the registry's one runtime, so two callers shared
// the VM argument scratch (Q2 shape lost rows), the aggregate states
// (Q5 returned wrong groups) and the runtime's one interrupt binding
// (a request died with another request's context).

// q2Shape is the benchmark's serve_short_mixed Q2 read.
const q2Shape = "SELECT funder, COUNT(*) AS pubs, SUM(citations) AS cites " +
	"FROM (SELECT extractfunder(project) AS funder, citations FROM pubs) AS p " +
	"WHERE citations >= %d AND funder IS NOT NULL GROUP BY funder"

// concurrentExecs is the number of overlapped executions per
// reproducer: 200 by default (plenty to fail on shared state — the
// defects hit 10 % and 55 % of executions), raised by scripts/check.sh
// through QFUSOR_CONCURRENT_EXECS for its race sweep: at 3 200 rows one
// Q5 costs ~230 ms under -race, so 2 000 of them are the gate's price,
// not every `go test`'s.
func concurrentExecs(t *testing.T) int {
	if s := os.Getenv("QFUSOR_CONCURRENT_EXECS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("QFUSOR_CONCURRENT_EXECS=%q", s)
		}
		return n
	}
	return 200
}

// launchReproducers builds the engine the reproducers run on: the
// UDFBench library, pubs at 64 rows and artifacts at 3 200.
func launchReproducers(t *testing.T) *engines.Instance {
	t.Helper()
	inst := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	t.Cleanup(inst.Close)
	if err := workload.InstallUDFBench(inst); err != nil {
		t.Fatal(err)
	}
	d := workload.GenUDFBench(workload.Small)
	inst.Put(data.FromChunk("pubs", d.Pubs.Chunk().Slice(0, 64)))
	arts := d.Artifacts // 1 600 rows; doubled in place
	for _, c := range arts.Cols {
		c.AppendColumn(c.Slice(0, c.Len()))
	}
	if arts.NumRows() != 3200 {
		t.Fatalf("artifacts has %d rows, want 3200", arts.NumRows())
	}
	inst.Put(arts)
	return inst
}

// execFn runs sql on one caller's connection (an instance view, or an
// HTTP session) and returns the result as a canonical row multiset.
// timeout 0 means the caller's context stays live; cancelled reports a
// typed cancellation of a request that had a deadline.
type execFn func(sql string, native bool, timeout time.Duration) (rows string, cancelled bool, err error)

// reproducer is one defect's workload: the texts each caller cycles
// through and, for the deadline reproducer, caller 1's deadline.
type reproducer struct {
	name     string
	tier     core.Tier
	texts    []string
	deadline time.Duration
}

func reproducers() []reproducer {
	q2 := make([]string, 8)
	for i := range q2 {
		q2[i] = fmt.Sprintf(q2Shape, i*40)
	}
	return []reproducer{
		{name: "q2shape_auto", texts: q2},
		{name: "q2shape_vm", tier: "vm", texts: q2},
		{name: "q5_aggregate", texts: []string{workload.Q5}},
		{name: "deadline_beside_long", texts: []string{workload.Q5}, deadline: 5 * time.Millisecond},
	}
}

// runReproducer drives two callers until execs executions have run and
// checks every one of them.
func runReproducer(t *testing.T, rp reproducer, execs int, callers [2]execFn) {
	want := map[string]string{}
	for _, sql := range rp.texts {
		rows, _, err := callers[0](sql, true, 0)
		if err != nil {
			t.Fatalf("native %q: %v", sql, err)
		}
		want[sql] = rows
	}
	var (
		started, mismatches, spurious, live atomic.Int64
		wg                                  sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var timeout time.Duration
			if c == 1 {
				timeout = rp.deadline
			}
			for i := 0; started.Add(1) <= int64(execs); i++ {
				sql := rp.texts[(i+c)%len(rp.texts)]
				rows, cancelled, err := callers[c](sql, false, timeout)
				switch {
				case cancelled && timeout > 0:
					continue // its own deadline: the allowed outcome
				case err != nil:
					spurious.Add(1)
					t.Errorf("caller %d, live context: %v", c, err)
				case rows != want[sql]:
					mismatches.Add(1)
					t.Errorf("caller %d: %q differs from native\n got: %s\nwant: %s", c, sql, rows, want[sql])
				}
				if timeout == 0 {
					live.Add(1)
				}
				if mismatches.Load()+spurious.Load() > 5 {
					return // the point is made
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("%d overlapped executions (%d with a live context): %d mismatches, %d spurious failures",
		execs, live.Load(), mismatches.Load(), spurious.Load())
	if live.Load() == 0 {
		t.Fatal("no live-context execution ran")
	}
}

// tableMultiset renders a result as sorted rows.
func tableMultiset(tb *data.Table) string {
	rows := make([]string, tb.NumRows())
	ch := tb.Chunk()
	for i := range rows {
		rows[i] = fmt.Sprint(ch.Row(i))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestConcurrentDifferentialEmbedded(t *testing.T) {
	inst := launchReproducers(t)
	execs := concurrentExecs(t)
	for _, rp := range reproducers() {
		t.Run(rp.name, func(t *testing.T) {
			view := inst.SessionView(rp.tier, 0, 0)
			exec := func(sql string, native bool, timeout time.Duration) (string, bool, error) {
				ctx := context.Background()
				if timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, timeout)
					defer cancel()
				}
				run := view.QueryFusedCtx
				if native {
					run = view.QueryCtx
				}
				tb, err := run(ctx, sql)
				if err != nil {
					var qe *resilience.QueryError
					return "", errors.As(err, &qe) && qe.Stage == "cancelled", err
				}
				return tableMultiset(tb), false, nil
			}
			runReproducer(t, rp, execs, [2]execFn{exec, exec})
		})
	}
}

func TestConcurrentDifferentialHTTP(t *testing.T) {
	inst := launchReproducers(t)
	// The deadline caller's timeouts count as tenant failures; keep the
	// tenant breaker from throttling it so its requests keep executing.
	srv := server.New(inst, server.Config{Admission: resilience.AdmissionConfig{
		TenantBreaker: resilience.NewBreaker(1<<30, time.Second)}})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + addr
	execs := concurrentExecs(t)
	for _, rp := range reproducers() {
		t.Run(rp.name, func(t *testing.T) {
			var callers [2]execFn
			for c := range callers {
				sid := openSession(t, base, map[string]any{"tenant": fmt.Sprintf("caller%d", c), "tier": rp.tier})
				client := &http.Client{}
				callers[c] = func(sql string, native bool, timeout time.Duration) (string, bool, error) {
					req := map[string]any{"session": sid, "sql": sql, "timeout_ms": timeout.Milliseconds()}
					if native {
						req["mode"] = "native"
					}
					status, body, err := clientPost(client, base+"/v1/query", req)
					if err != nil {
						return "", false, err
					}
					if status != http.StatusOK {
						return "", status == http.StatusRequestTimeout, fmt.Errorf("HTTP %d: %s", status, body)
					}
					var q struct {
						Rows []json.RawMessage `json:"rows"`
					}
					if err := json.Unmarshal(body, &q); err != nil {
						return "", false, err
					}
					rows := make([]string, len(q.Rows))
					for i, r := range q.Rows {
						rows[i] = string(r)
					}
					sort.Strings(rows)
					return strings.Join(rows, "\n"), false, nil
				}
			}
			runReproducer(t, rp, execs, callers)
		})
	}
}

// clientPost is postJSON on a caller's own keep-alive client, reporting
// transport errors instead of failing the test from a worker goroutine.
func clientPost(c *http.Client, url string, v any) (int, []byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
