package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qfusor/internal/engines"
	"qfusor/internal/obs"
	"qfusor/internal/server"
)

// workloadDef names one workload and says how its window is driven.
type workloadDef struct {
	Name string
	Why  string
	// served: the window goes through HTTP sessions; otherwise through
	// in-process calls.
	served bool
	// inlineOnly: every UDF template must be inlined and nothing may
	// cross the FFI boundary.
	inlineOnly bool
	gen        func(seed uint64, scale float64) *inputs
}

var workloadDefs = []workloadDef{
	{Name: "udf_scan", gen: genUDFScan,
		Why: "UDF bodies dominate (pylite tiers, in-process ffi boxing): where a tier-ladder or ffi change must show"},
	{Name: "inline_relational", gen: genInline, inlineOnly: true,
		Why: "inlined UDFs over 200k rows: sqlengine does all the work, pylite and ffi none; a vector-core change shows here, a tier change must not"},
	{Name: "row_ipc", gen: genRowIPC,
		Why: "row executor plus serialized out-of-process UDF calls: transport and tuple-at-a-time cost, untouched by columnar-only changes"},
	{Name: "serve_short_mixed", gen: genServe, served: true,
		Why: "sub-millisecond requests over HTTP with writes invalidating the plan cache: decode, admission, parse, plan cache and encode dominate"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// options are one run's knobs; only seed, window and scale change what
// is measured.
type options struct {
	seed   uint64
	window time.Duration
	// scale shrinks row counts (1 = the sizes BENCHMARK.json is bound to;
	// the smoke test uses less).
	scale  float64
	outDir string
}

const (
	setupReps     = 5 // set-ups per end-to-end run; setup_s is their median
	coldInstances = 5 // fresh instances the cold pass launches
	warmSweeps    = 2 // discarded sweeps per client before anything is timed
	tracedMax     = 6 * time.Second
)

// checkEvery: every n-th operation's result hash is re-checked in the
// window (the smoke test checks every one).
var checkEvery = 50

// record is one completed operation.
type record struct {
	tmpl uint8
	kind opKind
	ok   bool
	out  outcome
}

// runner holds one workload's live state for one run.
type runner struct {
	def  *workloadDef
	opt  options
	in   *inputs
	inst *engines.Instance
	srv  *server.Server
	base string
	drv  []driver
	// handles[t][v] is the prepared-statement name of template t's
	// variant v.
	handles [][]string

	pos      []int // next schedule index per client
	inserts  int   // insert sequence number (client 0 only)
	events   int   // rows in events: initial plus acknowledged inserts
	expected map[string]uint64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// setup generates the inputs and starts the program on them, returning
// how long that took. A previous set-up is torn down first.
func (r *runner) setup() (time.Duration, error) {
	r.teardown()
	start := time.Now()
	r.in = r.def.gen(r.opt.seed, r.opt.scale)
	inst, err := launch(r.in)
	if err != nil {
		return 0, err
	}
	r.inst = inst
	if r.def.served {
		if r.srv, r.base, err = startServer(inst); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (r *runner) teardown() {
	for _, d := range r.drv {
		if s, ok := d.(*served); ok {
			s.close()
		}
	}
	r.drv = nil
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.inst != nil {
		r.inst.Close()
		r.inst = nil
	}
}

// clients is the number of closed-loop callers: one per schedule.
func (r *runner) clients() int { return len(r.in.sched) }

// connect opens one driver per client on the current set-up: in-process
// handles, or HTTP sessions with their prepared statements.
func (r *runner) connect() error {
	r.pos = make([]int, r.clients())
	r.events = r.in.eventsRows
	r.expected = map[string]uint64{}
	r.handles = make([][]string, len(r.in.templates))
	for t, tm := range r.in.templates {
		for v := 0; v < len(tm.Texts) && v < servePrepared; v++ {
			r.handles[t] = append(r.handles[t], fmt.Sprintf("%s_%d", tm.Name, v))
		}
	}
	for c := 0; c < r.clients(); c++ {
		if !r.def.served {
			r.drv = append(r.drv, embedded{r.inst})
			continue
		}
		d, err := newServed(r.base)
		if err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		r.drv = append(r.drv, d)
		for t, tm := range r.in.templates {
			for v, h := range r.handles[t] {
				if err := d.prepare(h, tm.Texts[v]); err != nil {
					return fmt.Errorf("prepare %s: %w", h, err)
				}
			}
		}
	}
	return nil
}

// judge counts one finished operation and checks what can be checked:
// no error, the events count equal to the acknowledged inserts, and —
// when a hash was taken — the same rows the native path returned.
func (r *runner) judge(o op, sql string, out outcome, err error, checked bool) bool {
	r.attempted.Add(1)
	name := r.in.templates[o.Tmpl].Name
	switch {
	case err != nil:
		r.fail("%s: %v", name, err)
		return false
	case o.Kind == opExec:
		r.events++
	case int(o.Tmpl) == r.in.eventsTmpl:
		if want := strconv.Itoa(r.events); out.scalar != want {
			r.fail("%s: counted %s rows, %s inserts were acknowledged", name, out.scalar, want)
			return false
		}
	default:
		if want, ok := r.expected[sql]; ok && checked && out.hash != want {
			r.fail("%s: result differs from the native path (%d rows)", name, out.rows)
			return false
		}
	}
	return true
}

// verify runs every text natively and fused, requires equal row
// multisets, and remembers each text's hash for the in-window checks.
func (r *runner) verify() {
	d := r.drv[0]
	type pending struct {
		o   op
		sql string
	}
	var texts []pending
	for t, tm := range r.in.templates {
		for v, sql := range tm.Texts {
			o := op{Tmpl: uint8(t), Variant: uint16(v)}
			out, err := d.run(opQuery, sql, "", true, true)
			if r.judge(o, sql, out, err, true) && t != r.in.eventsTmpl {
				r.expected[sql] = out.hash
			}
			texts = append(texts, pending{o, sql})
		}
	}
	ffiBefore := obs.Default.Counter("ffi.udf.calls").Value()
	for _, p := range texts {
		out, err := d.run(opQuery, p.sql, "", false, true)
		tm := r.in.templates[p.o.Tmpl]
		if r.judge(p.o, p.sql, out, err, true) && r.def.inlineOnly && tm.UDF && out.inlineSites == 0 {
			r.fail("%s: no UDF call site was inlined", tm.Name)
		}
	}
	if n := obs.Default.Counter("ffi.udf.calls").Value() - ffiBefore; r.def.inlineOnly && n != 0 {
		r.fail("%d FFI calls on a workload that must make none", n)
	}
}

// execFn executes one scheduled operation for client c.
type execFn func(c int, o op, sql, handle string, check bool) (outcome, error)

// direct sends the operation through the client's driver in one call.
func (r *runner) direct(c int, o op, sql, handle string, check bool) (outcome, error) {
	return r.drv[c].run(o.Kind, sql, handle, false, check)
}

// phase has nClients closed-loop callers work through their schedules
// until each has done maxOps operations (when > 0) or window has passed
// (when > 0). It returns every client's records and the wall time from
// the common start to the last completion.
func (r *runner) phase(nClients, maxOps int, window time.Duration, exec execFn) ([]record, time.Duration) {
	recs := make([][]record, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sched := r.in.sched[c]
			for i := 0; ; i++ {
				if maxOps > 0 && i >= maxOps {
					return
				}
				if window > 0 && !time.Now().Before(deadline) {
					return
				}
				o := sched[r.pos[c]%len(sched)]
				r.pos[c]++
				seq := 0
				if o.Kind == opExec { // only client 0's schedule holds writes
					seq = r.inserts
					r.inserts++
				}
				sql := r.in.text(o, seq)
				handle := ""
				if o.Kind == opPrepared {
					handle = r.handles[o.Tmpl][o.Variant]
				}
				check := i%checkEvery == 0 || int(o.Tmpl) == r.in.eventsTmpl
				out, err := exec(c, o, sql, handle, check)
				recs[c] = append(recs[c], record{tmpl: o.Tmpl, kind: o.Kind, ok: r.judge(o, sql, out, err, check), out: out})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []record
	for _, perClient := range recs {
		all = append(all, perClient...)
	}
	return all, elapsed
}

// coldPass times the first execution of every template on freshly
// launched instances that share the generated tables: optimize, codegen,
// tier compile, JIT warm-up and execute all land in the sample. It
// returns the samples grouped by template.
func (r *runner) coldPass() [][]float64 {
	lats := make([][]float64, len(r.in.templates))
	for k := 0; k < coldInstances; k++ {
		inst, err := launch(r.in)
		if err != nil {
			r.fail("cold launch: %v", err)
			return lats
		}
		d := embedded{inst}
		for _, t := range stream(r.opt.seed, fmt.Sprintf("cold/%d", k)).perm(len(r.in.templates)) {
			tm := r.in.templates[t]
			if len(tm.Texts) == 0 {
				continue
			}
			out, err := d.run(opQuery, tm.Texts[0], "", false, false)
			if r.judge(op{Tmpl: uint8(t)}, tm.Texts[0], out, err, false) {
				lats[t] = append(lats[t], ms(out.latency))
			}
		}
		inst.Close()
	}
	return lats
}

// window is what one measured window yields.
type window struct {
	recs    []record
	elapsed time.Duration
	allocKB float64
	obs     obs.Snapshot // counter deltas over the window
}

func (r *runner) measure(d time.Duration) window {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s0 := obs.Default.Snapshot()
	recs, elapsed := r.phase(r.clients(), 0, d, r.direct)
	s1 := obs.Default.Snapshot()
	runtime.ReadMemStats(&m1)
	w := window{recs: recs, elapsed: elapsed, obs: s1.Diff(s0), allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024}
	if n := w.obs.Counters["ffi.udf.calls"]; r.def.inlineOnly && n != 0 {
		r.fail("%d FFI calls in the window of a workload that must make none", n)
	}
	return w
}

// byTemplate groups the latencies (ms) of correct operations.
func byTemplate(recs []record, nTemplates int) [][]float64 {
	out := make([][]float64, nTemplates)
	for _, rec := range recs {
		if rec.ok {
			out[rec.tmpl] = append(out[rec.tmpl], ms(rec.out.latency))
		}
	}
	return out
}

func medians(groups [][]float64) []float64 {
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = median(g)
	}
	return out
}

// endToEnd computes the end-to-end metrics of a window. cold holds the
// cold-pass latencies by template; for the served workload they are
// instead the window's requests that missed the plan cache.
func (r *runner) endToEnd(w window, cold [][]float64, setups []float64) map[string]float64 {
	if r.def.served {
		cold = make([][]float64, len(r.in.templates))
	}
	var all []float64
	okOps := 0
	for _, rec := range w.recs {
		if !rec.ok {
			continue
		}
		okOps++
		all = append(all, ms(rec.out.latency))
		if r.def.served && rec.out.planCache == "miss" {
			cold[rec.tmpl] = append(cold[rec.tmpl], ms(rec.out.latency))
		}
	}
	return map[string]float64{
		"setup_s":             median(setups) / 1e3,
		"latency_ms_p50":      quantile(all, 0.50),
		"latency_ms_p95":      quantile(all, 0.95),
		"latency_ms_geomean":  geomean(medians(byTemplate(w.recs, len(r.in.templates)))),
		"throughput_ops_s":    float64(okOps) / w.elapsed.Seconds(),
		"cold_latency_ms_p50": geomean(medians(cold)),
		"alloc_kb_per_op":     ratio(w.allocKB, float64(len(w.recs))),
	}
}

// result is one run's verdict and numbers.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	// info is printed before the result line: sample counts, the window,
	// the host — what a reader needs to judge the numbers.
	info map[string]any
}

// run executes one workload once. traced selects the per-layer run
// (window with counters, traced pass, layer probes) over the end-to-end
// run (repeated set-up, cold pass, full window).
func run(def *workloadDef, opt options, traced bool) (*result, error) {
	r := &runner{def: def, opt: opt}
	defer r.teardown()

	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		d, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ms(d))
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	r.verify()
	r.phase(r.clients(), warmSweeps*r.in.sweep, 0, r.direct)

	res := &result{info: map[string]any{
		"workload": def.Name, "seed": opt.seed, "window_s": opt.window.Seconds(), "scale": opt.scale,
		"clients": r.clients(), "load": "closed loop", "host": hostFingerprint(), "claim": nil,
	}}
	if traced {
		w := r.measure(opt.window / 2)
		res.Metrics = r.perLayer(w, res.info)
	} else {
		var cold [][]float64
		if !def.served {
			cold = r.coldPass()
		}
		w := r.measure(opt.window)
		res.Metrics = r.endToEnd(w, cold, setups)
		perTemplate := map[string]float64{}
		for t, med := range medians(byTemplate(w.recs, len(r.in.templates))) {
			perTemplate[r.in.templates[t].Name] = med
		}
		res.info["template_median_ms"] = perTemplate
		res.info["window_ops"] = len(w.recs)
		res.info["window_elapsed_s"] = w.elapsed.Seconds()
		res.info["plancache_hit_ratio"] = planCacheRatio(w.recs)
	}
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	res.Correct = res.Failed == 0
	res.info["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	if len(r.problems) > 0 {
		res.info["problems"] = r.problems
	}
	return res, nil
}

// planCacheRatio is hits / (hits + misses) over the operations that
// entered the optimizer front-end (plain SQL never does).
func planCacheRatio(recs []record) float64 {
	hit, miss := 0.0, 0.0
	for _, rec := range recs {
		switch rec.out.planCache {
		case "hit":
			hit++
		case "miss":
			miss++
		}
	}
	return ratio(hit, hit+miss)
}

func hostFingerprint() map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}
