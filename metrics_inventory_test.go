package qfusor_test

import (
	"strconv"
	"strings"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
	"qfusor/internal/workload"
)

// seriesLabelValues enumerates every label value /metrics may carry, per
// label name. A label whose values come from data (a query, a section,
// a UDF name) would grow the series count without bound.
var seriesLabelValues = map[string]func(string) bool{
	"reason": oneOf("breaker_open", "panic", "exec_error", // qfusor.fallbacks
		resilience.ReasonDraining, resilience.ReasonQueueFull, resilience.ReasonQueueTimeout, // server.shed
		resilience.ReasonShedCost, resilience.ReasonTenantThrottled, resilience.ReasonCancelled),
	"kind": oneOf("latency", "rows", "allocs", "ffi"), // qfusor.regressions
	"le": func(v string) bool { // histogram buckets
		_, err := strconv.ParseFloat(v, 64)
		return err == nil || v == "+Inf"
	},
}

func oneOf(vals ...string) func(string) bool {
	return func(v string) bool {
		for _, w := range vals {
			if v == w {
				return true
			}
		}
		return false
	}
}

// TestMetricSeriesInventory runs Q1–Q18 fused several times and checks
// that every labeled series in the exposition draws its label values
// from a fixed, enumerated set, so repeated and new queries cannot grow
// the number of series.
func TestMetricSeriesInventory(t *testing.T) {
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true})
	defer in.Close()
	for _, install := range []func(*engines.Instance) error{
		workload.InstallUDFBench, workload.InstallZillow, workload.InstallWeld, workload.InstallUDO,
	} {
		if err := install(in); err != nil {
			t.Fatal(err)
		}
	}
	ub := workload.GenUDFBench(workload.Tiny)
	pop, dirty := workload.GenWeld(workload.Tiny)
	arrays, docs := workload.GenUDO(workload.Tiny)
	for _, tbl := range []*data.Table{ub.Pubs, ub.Artifacts, workload.GenZillow(workload.Tiny), pop, dirty, arrays, docs} {
		in.Put(tbl)
	}
	for pass := 0; pass < 3; pass++ {
		for id, sql := range workload.AllQueries() {
			if _, err := in.QueryFused(sql); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}

	samples, err := obs.ParseExposition(obs.Default.Snapshot().Prometheus())
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for key := range samples {
		open := strings.IndexByte(key, '{')
		if open < 0 {
			continue
		}
		labeled++
		rest := key[open+1 : len(key)-1]
		for rest != "" {
			eq := strings.IndexByte(rest, '=')
			name := rest[:eq]
			quoted, err := strconv.QuotedPrefix(rest[eq+1:])
			if err != nil {
				t.Fatalf("series %s: %v", key, err)
			}
			val, _ := strconv.Unquote(quoted)
			if allowed, ok := seriesLabelValues[name]; !ok || !allowed(val) {
				t.Errorf("series %s: label %s=%q is not from a fixed set", key, name, val)
			}
			rest = strings.TrimPrefix(rest[eq+1+len(quoted):], ",")
		}
	}
	if labeled == 0 {
		t.Fatal("the exposition has no labeled series to check")
	}
}
