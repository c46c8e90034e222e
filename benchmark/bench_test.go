package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"qfusor/internal/data"
)

// fingerprint renders everything a run feeds the engine as bytes.
func fingerprint(t *testing.T, in *inputs) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range in.tables {
		if err := data.EncodeTable(&buf, tbl); err != nil {
			t.Fatal(err)
		}
	}
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(in.templates); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(in.sched); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The same seed must give byte-identical tables, SQL texts and schedule;
// another seed must change them.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, def := range workloadDefs {
		a, b, c := fingerprint(t, def.gen(1, 0.1)), fingerprint(t, def.gen(1, 0.1)), fingerprint(t, def.gen(2, 0.1))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 1 differ", def.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", def.Name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload runs end to end at reduced rows with a 1 s window:
// every metric present by name with its unit, nothing failed (every
// operation's rows are checked against the native path here, not every
// 50th), the stages cover most of the single call, and the trace file
// parses.
func TestSmoke(t *testing.T) {
	checkEvery, minReps = 1, 10
	defer func() { checkEvery, minReps = 50, 200 }()
	dir := t.TempDir()
	for i := range workloadDefs {
		def := &workloadDefs[i]
		opt := options{seed: 1, window: time.Second, scale: 0.05, outDir: dir}
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := run(def, opt, traced)
			if err != nil {
				t.Fatalf("%s: %v", def.Name, err)
			}
			t.Logf("%s traced=%v: %d operations in %.1fs", def.Name, traced, res.Attempted, time.Since(start).Seconds())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", def.Name, traced, res.Failed, res.Attempted, res.info["problems"])
			}
			spec := endToEndSpec
			if traced {
				spec = perLayerSpec
			}
			if len(res.Metrics) != len(spec) {
				t.Errorf("%s traced=%v: %d metrics, the spec lists %d", def.Name, traced, len(res.Metrics), len(spec))
			}
			for _, s := range spec {
				if _, ok := res.Metrics[s.Name]; !ok {
					t.Errorf("%s: metric %s missing", def.Name, s.Name)
				}
				if !nameRE.MatchString(s.Name) || s.Unit == "" {
					t.Errorf("metric %q (unit %q) is not well formed", s.Name, s.Unit)
				}
			}
			if !traced {
				for _, s := range spec {
					if res.Metrics[s.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.Name, s.Name, res.Metrics[s.Name])
					}
				}
				continue
			}
			// The full-size workloads read 0.93–1.05 (README.md). At a
			// twentieth of the rows a query takes ~0.2 ms, and the ledger
			// and flight record QueryFusedCtx adds around the stages — which
			// the staged calls skip — become a tenth of it.
			if c := res.Metrics["trace.coverage"]; c < 0.75 {
				t.Errorf("%s: trace.coverage = %.3f, want >= 0.75 at smoke size", def.Name, c)
			}
			if n := res.Metrics["ffi.calls_per_op"]; def.inlineOnly && n != 0 {
				t.Errorf("%s: ffi.calls_per_op = %v, want 0", def.Name, n)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+def.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != def.Name {
				t.Errorf("%s: trace file does not parse into spans: %v", def.Name, err)
			}
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// reports, inside the contract's limits.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", c.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"benchmark"}) || !reflect.DeepEqual(c.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v / paths %v", c.Command, c.Paths)
	}
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads listed, %d defined", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %+v does not match %s", i, w, workloadDefs[i].Name)
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEndSpec) {
		t.Errorf("end_to_end differs from endToEndSpec")
	}
	if !reflect.DeepEqual(c.PerLayer, perLayerSpec) {
		t.Errorf("per_layer differs from perLayerSpec")
	}
	setup := false
	for _, m := range c.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}
